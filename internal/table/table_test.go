package table

import (
	"fmt"
	"strings"
	"testing"
)

func TestText(t *testing.T) {
	s := Text([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	want := "" +
		"a    bb\n" +
		"---  --\n" +
		"1    2 \n" +
		"333  4 \n"
	if s != want {
		t.Fatalf("got:\n%s\nwant:\n%s", s, want)
	}
}

// pair prints as "x/y" through its String method.
type pair struct{ x, y int }

func (p pair) String() string { return fmt.Sprintf("%d/%d", p.x, p.y) }

type row struct {
	Name   string  `col:"name"`
	hidden int     // untagged: never printed
	Count  int     `col:"count"`
	Ratio  float64 `col:"ratio" fmt:"%.2fx"`
	Note   string  // untagged, exported: still not printed
	Split  pair    `col:"split"`
}

func TestOfFollowsTags(t *testing.T) {
	got := Of([]row{
		{Name: "alpha", hidden: 7, Count: 12, Ratio: 1.25, Note: "skip", Split: pair{1, 2}},
		{Name: "b", Count: 3, Ratio: 20, Split: pair{10, 0}},
	})
	want := Text([]string{"name", "count", "ratio", "split"}, [][]string{
		{"alpha", "12", "1.25x", "1/2"},
		{"b", "3", "20.00x", "10/0"},
	})
	if got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	if strings.Contains(got, "skip") || strings.Contains(got, "7") {
		t.Fatalf("untagged field printed:\n%s", got)
	}
}

func TestOfNoRowsPrintsHeader(t *testing.T) {
	if got, want := Of([]row(nil)), "name  count  ratio  split\n----  -----  -----  -----\n"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
