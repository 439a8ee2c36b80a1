package units

import (
	"encoding/json"
	"testing"
)

// The named types must marshal exactly like their underlying types: models
// serialized before the unit migration must load unchanged after it.
func TestJSONCompatibility(t *testing.T) {
	type rec struct {
		T Seconds `json:"t"`
		F FLOPs   `json:"f"`
		B Bytes   `json:"b"`
	}
	raw, err := json.Marshal(rec{T: 0.25, F: 1 << 30, B: 4096})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"t":0.25,"f":1073741824,"b":4096}`
	if string(raw) != want {
		t.Fatalf("marshal = %s, want %s", raw, want)
	}
	var back rec
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatal(err)
	}
	if back.T != 0.25 || back.F != 1<<30 || back.B != 4096 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestConversions(t *testing.T) {
	if got := Seconds(2e-6).Micros(); got != 2 {
		t.Fatalf("Micros = %v", got)
	}
	if Seconds(1).String() != "1s" || FLOPs(2).String() != "2flop" || Bytes(3).String() != "3B" {
		t.Fatal("String formatting changed")
	}
}
