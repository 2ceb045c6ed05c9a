package main

import (
	"strings"
	"testing"
)

func TestParseInputs(t *testing.T) {
	xwords := []int{3, 7} // two X words, as tea8 has
	cases := []struct {
		list    string
		wantErr string
	}{
		{"", "has 0 values, want 2"},
		{"1", "has 1 values, want 2"},
		{"1,2,3", "has 3 values, want 2"},
		{"0x1234, 0x5678", ""},
		{"1,0x10000", "bad input"}, // wider than the 16-bit data word
		{"1,x", "bad input"},
	}
	for _, c := range cases {
		mi, err := parseInputs(c.list, xwords, 16)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseInputs(%q) error = %v, want %q", c.list, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("parseInputs(%q): %v", c.list, err)
		}
		if len(mi) != len(xwords) {
			t.Fatalf("parseInputs(%q) pinned %d words, want %d", c.list, len(mi), len(xwords))
		}
		for i, want := range []uint64{0x1234, 0x5678} {
			v, ok := mi[i].Val.Uint64()
			if mi[i].Mem != "dmem" || mi[i].Word != xwords[i] || !ok || v != want || mi[i].Val.Width() != 16 {
				t.Errorf("word %d = %+v, want dmem[%d] = %#x (16 bits)", i, mi[i], xwords[i], want)
			}
		}
	}
}
