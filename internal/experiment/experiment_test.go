package experiment

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestSelect drives the one -exp selection path over a stand-in table
// whose functions log what ran.
func TestSelect(t *testing.T) {
	var ran []string
	fn := func(id string) Func {
		return func(*Config) error { ran = append(ran, id); return nil }
	}
	fams := []Family{
		{ID: "E1", Check: fn("E1")},
		{ID: "E2", Measure: fn("E2")},
		{ID: "E25", Check: fn("E25"), Measure: fn("E25")},
		{ID: "E26", Check: fn("E26")},
	}
	for _, tc := range []struct {
		d       Driver
		exp     string
		want    []string
		wantErr string // substring of the error; "" for success
	}{
		{d: Verify, exp: "all", want: []string{"E1", "E25", "E26"}},
		{d: Bench, exp: "ALL", want: []string{"E2", "E25"}},
		{d: Verify, exp: " e25 ,E26", want: []string{"E25", "E26"}},
		{d: Verify, exp: "E26,E1", want: []string{"E1", "E26"}},        // table order
		{d: Verify, exp: "E25,e25,E25", want: []string{"E25"}},         // duplicates run once
		{d: Verify, exp: "E1,all", want: []string{"E1", "E25", "E26"}}, // all wins
		{d: Verify, exp: "E1,E99", wantErr: `unknown experiment "E99"`},
		{d: Verify, exp: "E2", wantErr: `unknown experiment "E2"`}, // not served by this driver
		{d: Verify, exp: "", wantErr: `unknown experiment ""`},
	} {
		ran = nil
		err := runFrom(fams, tc.d, tc.exp, &Config{})
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("driver %d -exp %q: err = %v, want one containing %s", tc.d, tc.exp, err, tc.wantErr)
			}
			if len(ran) != 0 {
				t.Errorf("driver %d -exp %q: ran %v before rejecting the list", tc.d, tc.exp, ran)
			}
			continue
		}
		if err != nil || !slices.Equal(ran, tc.want) {
			t.Errorf("driver %d -exp %q: ran %v, err %v; want %v", tc.d, tc.exp, ran, err, tc.want)
		}
	}
}

// TestRunJoinsErrors: a failing family does not stop the ones after it,
// and every failure comes back named by its family.
func TestRunJoinsErrors(t *testing.T) {
	var ran []string
	fams := []Family{
		{ID: "E1", Measure: func(*Config) error { ran = append(ran, "E1"); return errors.New("gate one") }},
		{ID: "E2", Measure: func(*Config) error { ran = append(ran, "E2"); return nil }},
		{ID: "E3", Measure: func(*Config) error { ran = append(ran, "E3"); return errors.New("gate three") }},
	}
	err := runFrom(fams, Bench, "all", &Config{})
	if !slices.Equal(ran, []string{"E1", "E2", "E3"}) {
		t.Errorf("ran %v, want all three", ran)
	}
	if err == nil || !strings.Contains(err.Error(), "E1: gate one") || !strings.Contains(err.Error(), "E3: gate three") {
		t.Errorf("err = %v, want both failures named by family", err)
	}
}

// TestRegistry checks the table itself: unique IDs, every family served
// by some driver, and titles present.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range families {
		if seen[f.ID] {
			t.Errorf("%s listed twice", f.ID)
		}
		seen[f.ID] = true
		if f.Title == "" {
			t.Errorf("%s has no title", f.ID)
		}
		if f.Check == nil && f.Measure == nil && f.Render == nil && f.Adversary == nil {
			t.Errorf("%s is served by no driver", f.ID)
		}
	}
}
