package main

import (
	"testing"

	"tricomm"
)

// TestParseScheme pins the -partition flag vocabulary.
func TestParseScheme(t *testing.T) {
	cases := map[string]tricomm.SplitScheme{
		"disjoint":  tricomm.SplitDisjoint,
		"duplicate": tricomm.SplitDuplicate,
		"byvertex":  tricomm.SplitByVertex,
		"all":       tricomm.SplitAll,
	}
	for in, want := range cases {
		got, err := tricomm.ParseSplitScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseSplitScheme(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := tricomm.ParseSplitScheme("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestParseProtocol(t *testing.T) {
	cases := map[string]tricomm.Protocol{
		"interactive":   tricomm.Interactive,
		"blackboard":    tricomm.InteractiveBlackboard,
		"sim-low":       tricomm.SimultaneousLow,
		"sim-high":      tricomm.SimultaneousHigh,
		"sim-oblivious": tricomm.SimultaneousOblivious,
		"auto":          tricomm.SimultaneousOblivious,
		"exact":         tricomm.Exact,
	}
	for in, want := range cases {
		got, err := parseProtocol(in)
		if err != nil || got != want {
			t.Errorf("parseProtocol(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseProtocol("bogus"); err == nil {
		t.Error("bogus protocol accepted")
	}
}
