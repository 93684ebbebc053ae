package model

import "testing"

func TestNames(t *testing.T) {
	type color int
	colors := Names[color]{{"red", 0}, {"green", 1}, {"blue", 2}}
	for _, n := range colors {
		if got := NameOf(colors, n.Value, "color"); got != n.Name {
			t.Errorf("NameOf(%d) = %q, want %q", n.Value, got, n.Name)
		}
		if v, err := colors.Parse("color", n.Name); err != nil || v != n.Value {
			t.Errorf("Parse(%q) = %d, %v", n.Name, v, err)
		}
	}
	if got := NameOf(colors, 9, "color"); got != "color(9)" {
		t.Errorf("NameOf(9) = %q, want color(9)", got)
	}
	_, err := colors.Parse("color", "mauve")
	if want := `unknown color "mauve" (want red|green|blue)`; err == nil || err.Error() != want {
		t.Errorf("Parse(mauve) error %v, want %s", err, want)
	}
	if got := colors.Join(", "); got != "red, green, blue" {
		t.Errorf("Join = %q", got)
	}
}
