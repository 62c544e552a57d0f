package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestUnreadFlagsPerMode pins that every mode names the set flags it
// does not read, so sweep exits 2 instead of silently dropping them.
func TestUnreadFlagsPerMode(t *testing.T) {
	for _, tc := range []struct {
		name     string
		listTech bool
		servers  string
		scale    string
		set      []string
		mode     string
		want     []string
	}{
		{"scale mode drops selection flags", false, "", "10x",
			[]string{"scale", "technique", "csv", "zipf", "cachemb", "faults"}, "scale",
			[]string{"-technique", "-zipf", "-cachemb", "-faults"}},
		{"scale mode reads its own flags", false, "", "100x",
			[]string{"scale", "seed", "csv", "cpuprofile", "memprofile"}, "scale", nil},
		{"1000 is a trajectory", false, "", "1000", []string{"scale", "k"}, "scale", []string{"-k"}},
		{"cluster grid ignores technique, zipf and scale", false, "1", "full",
			[]string{"servers", "technique", "zipf", "scale"}, "cluster",
			[]string{"-technique", "-zipf", "-scale"}},
		{"cluster grid reads dispatch", false, "1,2", "full",
			[]string{"servers", "dispatch", "seed", "csv"}, "cluster", nil},
		{"dispatch without servers", false, "", "full",
			[]string{"dispatch", "stations"}, "paper", []string{"-dispatch"}},
		{"paper sweep reads its options", false, "", "quick",
			[]string{"scale", "technique", "k", "stations", "dist", "zipf", "arrivals", "cachemb", "batchwindow", "faults", "pressure", "csv"},
			"paper", nil},
		{"unknown scale stays a paper-sweep error", false, "", "bogus", []string{"scale"}, "paper", nil},
		{"list reads nothing else", true, "4", "10x",
			[]string{"list-techniques", "servers", "scale", "seed"}, "list",
			[]string{"-servers", "-scale", "-seed"}},
	} {
		mode := sweepMode(tc.listTech, tc.servers, tc.scale)
		if mode != tc.mode {
			t.Errorf("%s: mode %q, want %q", tc.name, mode, tc.mode)
		}
		if got := unreadFlags(mode, tc.set); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: unread %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStarvationWarning pins that the starvation warning advises
// -pressure only to a sweep that ran without it.
func TestStarvationWarning(t *testing.T) {
	if w := starvationWarning(2, false); !strings.Contains(w, "2 materializations starved") || !strings.Contains(w, "add -pressure") {
		t.Errorf("warning without -pressure: %q", w)
	}
	if w := starvationWarning(2, true); strings.Contains(w, "-pressure") || !strings.Contains(w, "raise capacity or use k >= M") {
		t.Errorf("warning under -pressure: %q", w)
	}
}

// TestParseFaults pins that a -faults plan with server: clauses is a
// usage error naming the ssim run that executes one: no sweep runs a
// server plan (an open sweep point is a 1-member cluster without one),
// so such a plan would otherwise reach a member engine and fail there.
// Disk and tertiary plans parse as before.
func TestParseFaults(t *testing.T) {
	for _, tc := range []struct {
		faults string
		err    string // substring of the error, "" for none
	}{
		{"", ""},
		{"fail:7@600; slow:3@100-400; tert@0-200", ""},
		{"server:0@100-200", "ssim -arrivals > 0"},
		{"fail:7@600; server:1@2000", "ssim -arrivals > 0"},
		{"bogus", "fault"},
	} {
		_, err := parseFaults(tc.faults)
		if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("parseFaults(%q) error %v, want one containing %q", tc.faults, err, tc.err)
		}
	}
}
