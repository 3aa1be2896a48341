package registry

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestRegistry pins the contract every named choice relies on: wiring bugs
// panic without touching the registry, the empty name resolves to the
// default, aliases resolve to their entry, unknown names carry the sorted
// canonical names, and All keeps registration order.
func TestRegistry(t *testing.T) {
	r := New[int]("pkg widget", "b")
	r.Register("c", nil, 3)
	r.Register("b", []string{"bee", "bb"}, 2)
	r.Register("a", nil, 1)

	for _, tc := range []struct {
		want    string
		name    string
		aliases []string
	}{
		{"empty pkg widget", "", nil},
		{"empty pkg widget", "x1", []string{""}},
		{`duplicate pkg widget registration "c"`, "c", nil},
		{`duplicate pkg widget registration "bee"`, "bee", nil},
		{`duplicate pkg widget registration "a"`, "x2", []string{"a"}},
		{`duplicate pkg widget registration "bb"`, "x3", []string{"bb"}},
		{`duplicate pkg widget registration "x4"`, "x4", []string{"x4"}},
		{`duplicate pkg widget registration "y"`, "x5", []string{"y", "y"}},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("Register(%q, %q) panicked with %q, want %q", tc.name, tc.aliases, msg, tc.want)
				}
			}()
			r.Register(tc.name, tc.aliases, 0)
		}()
	}

	for name, want := range map[string]int{"": 2, "a": 1, "b": 2, "bee": 2, "bb": 2, "c": 3} {
		if got, err := r.Lookup(name); err != nil || got != want {
			t.Errorf("Lookup(%q) = %d, %v; want %d", name, got, err, want)
		}
	}
	_, err := r.Lookup("x1")
	var ue *UnknownError
	if !errors.As(err, &ue) {
		t.Fatalf("Lookup(x1) error %v, want *UnknownError", err)
	}
	want := UnknownError{Kind: "pkg widget", Name: "x1", Known: []string{"a", "b", "c"}}
	if !reflect.DeepEqual(*ue, want) {
		t.Fatalf("UnknownError %+v, want %+v (failed registrations must leave no trace)", *ue, want)
	}
	if msg := `pkg: unknown widget "x1" (valid: a, b, c)`; err.Error() != msg {
		t.Fatalf("message %q, want %q", err.Error(), msg)
	}
	if got := r.All(); !reflect.DeepEqual(got, []int{3, 2, 1}) {
		t.Fatalf("All() = %v, want registration order [3 2 1]", got)
	}

	noDefault := New[int]("pkg gadget", "")
	if _, err := noDefault.Lookup(""); !errors.As(err, &ue) || ue.Name != "" {
		t.Fatalf("empty name without a default: %v", err)
	}
}
