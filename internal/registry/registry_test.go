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
// default, unknown names carry the sorted names, and All keeps registration
// order.
func TestRegistry(t *testing.T) {
	r := New[int]("pkg widget", "b")
	r.Register("c", 3)
	r.Register("b", 2)
	r.Register("a", 1)

	for _, tc := range []struct{ want, name string }{
		{"empty pkg widget name", ""},
		{`duplicate pkg widget registration "c"`, "c"},
		{`duplicate pkg widget registration "b"`, "b"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("Register(%q) panicked with %q, want %q", tc.name, msg, tc.want)
				}
			}()
			r.Register(tc.name, 0)
		}()
	}

	for name, want := range map[string]int{"": 2, "a": 1, "b": 2, "c": 3} {
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
