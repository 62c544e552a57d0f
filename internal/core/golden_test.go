package core

import (
	"strings"
	"testing"
)

// Golden renderings: the exact text of the paper's layout figures,
// compared with per-line trailing whitespace trimmed.  These lock the
// presentation so a refactor of Grid/RenderGrid cannot silently change
// what cmd/repro prints.

// trimLines removes trailing spaces from every line.
func trimLines(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " ")
	}
	return strings.Join(lines, "\n")
}

const figure1Golden = `Disk            0    1    2    3    4    5    6    7    8
Subobject 0  X0.0 X0.1 X0.2
Subobject 1                 X1.0 X1.1 X1.2
Subobject 2                                X2.0 X2.1 X2.2
Subobject 3  X3.0 X3.1 X3.2
`

func TestFigure1Golden(t *testing.T) {
	got, err := Figure1(4)
	if err != nil {
		t.Fatal(err)
	}
	if trimLines(got) != figure1Golden {
		t.Errorf("Figure 1 drifted.\ngot:\n%s\nwant:\n%s", got, figure1Golden)
	}
}

const figure4Golden = `Disk            0    1    2    3    4    5    6    7
Subobject 0  X0.0 X0.1 X0.2 X0.3
Subobject 1       X1.0 X1.1 X1.2 X1.3
Subobject 2            X2.0 X2.1 X2.2 X2.3
Subobject 3                 X3.0 X3.1 X3.2 X3.3
Subobject 4                      X4.0 X4.1 X4.2 X4.3
Subobject 5  X5.3                     X5.0 X5.1 X5.2
`

func TestFigure4Golden(t *testing.T) {
	got, err := Figure4(6)
	if err != nil {
		t.Fatal(err)
	}
	if trimLines(got) != figure4Golden {
		t.Errorf("Figure 4 drifted.\ngot:\n%s\nwant:\n%s", got, figure4Golden)
	}
}

// TestFigure5FirstRowsGolden locks the first rows of the Figure 5
// grid against the paper's published cells.
func TestFigure5FirstRowsGolden(t *testing.T) {
	got, err := Figure5(5)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(got, "\n")
	wantRows := []string{
		"Subobject 0  Y0.0 Y0.1 Y0.2 Y0.3 X0.0 X0.1 X0.2 Z0.0 Z0.1",
		"Subobject 1       Y1.0 Y1.1 Y1.2 Y1.3 X1.0 X1.1 X1.2 Z1.0 Z1.1",
		"Subobject 4  Z4.1                Y4.0 Y4.1 Y4.2 Y4.3 X4.0 X4.1 X4.2 Z4.0",
	}
	for _, want := range wantRows {
		found := false
		for _, line := range lines {
			if strings.HasPrefix(strings.TrimRight(line, " "), strings.TrimRight(want, " ")) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Figure 5 missing row %q in:\n%s", want, got)
		}
	}
}
