package fault

import "testing"

func TestKindString(t *testing.T) {
	if Poison.String() != "poison" {
		t.Fatal("kind name wrong")
	}
	if Kind(42).String() != "kind42" {
		t.Fatal("unknown kind name wrong")
	}
}
