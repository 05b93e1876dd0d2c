package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestOptionsJSONRoundTrip(t *testing.T) {
	opt := DefaultOptions()
	opt.Seeds = 17
	opt.Metric = MetricNGTLS
	opt.Ordering = OrderBFS
	opt.Refine = false
	opt.Workers = 3
	opt.KeepCurves = true
	opt.RandSeed = 99

	data, err := json.Marshal(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"metric":"ngtls"`, `"ordering":"bfs"`, `"refine":false`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("marshal missing %s in %s", want, data)
		}
	}
	got, err := ParseOptions(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, opt) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, opt)
	}
}

func TestParseOptionsDefaultsAndErrors(t *testing.T) {
	// Absent fields keep their defaults; empty document is all-default.
	for _, doc := range []string{"", "   ", "{}"} {
		got, err := ParseOptions([]byte(doc))
		if err != nil {
			t.Fatalf("ParseOptions(%q): %v", doc, err)
		}
		if !reflect.DeepEqual(got, DefaultOptions()) {
			t.Errorf("ParseOptions(%q) != DefaultOptions", doc)
		}
	}
	got, err := ParseOptions([]byte(`{"seeds": 5, "metric": "ngtls"}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seeds != 5 || got.Metric != MetricNGTLS || got.MaxOrderLen != DefaultOptions().MaxOrderLen {
		t.Errorf("partial overlay wrong: %+v", got)
	}

	// Unknown fields, invalid values and trailing garbage are rejected.
	for _, doc := range []string{
		`{"seedz": 5}`,
		`{"relabel": true}`,
		`{"seeds": -1}`,
		`{"seeds": 1099511627776}`,
		`{"refine_seeds": 65}`,
		`{"metric": "banana"}`,
		`{"ordering": "dfs"}`,
		`{} {"seeds": 2}`,
		`{"dip_ratio": 0}`,
	} {
		if _, err := ParseOptions([]byte(doc)); err == nil {
			t.Errorf("ParseOptions(%q) accepted", doc)
		}
	}
}

// TestParseOptionsOldPayload locks the forward-compatibility
// guarantee for the multilevel fields: an options document written by
// a pre-multilevel client (no levels/min_coarse_cells/refine_radius
// keys) must decode to the flat pipeline — Levels=1 and the multilevel
// defaults — so existing gtlserved clients and their cached result
// keys keep meaning exactly what they meant before the upgrade.
func TestParseOptionsOldPayload(t *testing.T) {
	// A full pre-multilevel document (every field PR-3 clients could
	// send), frozen verbatim.
	old := []byte(`{
		"seeds": 80,
		"max_order_len": 5000,
		"metric": "ngtls",
		"ordering": "weighted",
		"min_group_size": 24,
		"accept_threshold": 0.8,
		"dip_ratio": 0.75,
		"big_net_skip": 20,
		"refine_seeds": 3,
		"prune_overlap_tolerance": 0.02,
		"refine": true,
		"workers": 4,
		"rand_seed": 9
	}`)
	got, err := ParseOptions(old)
	if err != nil {
		t.Fatalf("old payload rejected: %v", err)
	}
	def := DefaultOptions()
	if got.Levels != 1 {
		t.Errorf("old payload decoded Levels=%d, want 1 (flat)", got.Levels)
	}
	if got.MinCoarseCells != def.MinCoarseCells || got.RefineRadius != def.RefineRadius {
		t.Errorf("old payload multilevel defaults wrong: MinCoarseCells=%d RefineRadius=%d, want %d/%d",
			got.MinCoarseCells, got.RefineRadius, def.MinCoarseCells, def.RefineRadius)
	}
	if got.Seeds != 80 || got.MaxOrderLen != 5000 || got.Metric != MetricNGTLS || got.RandSeed != 9 {
		t.Errorf("old payload fields lost: %+v", got)
	}

	// New fields round-trip once present.
	doc := []byte(`{"levels": 3, "min_coarse_cells": 4000, "refine_radius": 5}`)
	got, err = ParseOptions(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Levels != 3 || got.MinCoarseCells != 4000 || got.RefineRadius != 5 {
		t.Errorf("multilevel fields not decoded: %+v", got)
	}
	// And invalid values are rejected like every other field.
	for _, bad := range []string{
		`{"levels": -1}`,
		`{"levels": 99}`,
		`{"min_coarse_cells": -1}`,
		`{"refine_radius": -2}`,
	} {
		if _, err := ParseOptions([]byte(bad)); err == nil {
			t.Errorf("ParseOptions(%s) accepted", bad)
		}
	}
}

func TestParseMetricOrdering(t *testing.T) {
	cases := []struct {
		in   string
		m    Metric
		fail bool
	}{
		{"gtlsd", MetricGTLSD, false},
		{"GTL-SD", MetricGTLSD, false},
		{" ngtls ", MetricNGTLS, false},
		{"nGTL-S", MetricNGTLS, false},
		{"", 0, true},
		{"cut", 0, true},
	}
	for _, c := range cases {
		m, err := ParseMetric(c.in)
		if (err != nil) != c.fail || (!c.fail && m != c.m) {
			t.Errorf("ParseMetric(%q) = %v, %v", c.in, m, err)
		}
	}
	for _, s := range []string{"weighted", "mincut", "bfs"} {
		o, err := ParseOrdering(s)
		if err != nil || o.String() != s {
			t.Errorf("ParseOrdering(%q) = %v, %v", s, o, err)
		}
	}
	if _, err := ParseOrdering("random"); err == nil {
		t.Error("ParseOrdering accepted garbage")
	}
}
