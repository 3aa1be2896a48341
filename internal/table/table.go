// Package table renders result rows as aligned text tables. A row type
// carries its own column spec in struct tags, so printing a result is one
// call to Of; Text is the aligner underneath, for tables built by hand.
package table

import (
	"fmt"
	"reflect"
	"strings"
)

// Text renders rows as an aligned text table: the headers, a dash rule,
// then one line per row, each cell left-aligned to its column's widest
// entry and columns separated by two spaces.
func Text(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Of renders a slice of structs with Text. Every field tagged
// col:"<header>" is one column, in declaration order, and each cell is the
// field formatted with its fmt:"<verb>" tag, or %v when there is none (so
// a field whose type has a String method prints through it). Untagged
// fields are not printed.
func Of[R any](rows []R) string {
	type column struct {
		field int
		verb  string
	}
	t := reflect.TypeFor[R]()
	var headers []string
	var cols []column
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		h, ok := f.Tag.Lookup("col")
		if !ok {
			continue
		}
		verb := f.Tag.Get("fmt")
		if verb == "" {
			verb = "%v"
		}
		headers = append(headers, h)
		cols = append(cols, column{i, verb})
	}
	cells := make([][]string, len(rows))
	for r, row := range rows {
		v := reflect.ValueOf(row)
		for _, c := range cols {
			cells[r] = append(cells[r], fmt.Sprintf(c.verb, v.Field(c.field).Interface()))
		}
	}
	return Text(headers, cells)
}
