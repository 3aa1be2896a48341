package repro_test

import (
	"os"
	"strings"
	"testing"
)

// TestDesignInventoryListsEveryPackage keeps DESIGN.md §2's package table
// whole: every directory under internal/ needs a row that starts with
// "| `internal/<name>` |". A package added, renamed or folded away without
// the table following fails here.
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(design)
	start := strings.Index(s, "\n## 2. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no section 2")
	}
	inventory := s[start+1:]
	if end := strings.Index(inventory, "\n## "); end >= 0 {
		inventory = inventory[:end]
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && !strings.Contains(inventory, "\n| `internal/"+d.Name()+"` |") {
			t.Errorf("DESIGN.md §2 has no row for internal/%s", d.Name())
		}
	}
}
