package gemm

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// codecPlans are the plans the JSON codec must round-trip: both launch
// orders, one-row tiles (what an odd M gets from DefaultConfig), and the
// 4096-tile M8192-N8192-K2048 plan.
var codecPlans = []struct {
	shape Shape
	cfg   Config
}{
	{Shape{512, 768, 64}, Config{TileM: 128, TileN: 128, Swizzle: 0}},
	{Shape{512, 768, 64}, Config{TileM: 128, TileN: 128, Swizzle: 1}},
	{Shape{512, 768, 64}, Config{TileM: 128, TileN: 128, Swizzle: 2}},
	{Shape{7, 96, 5}, Config{TileM: 1, TileN: 32, Swizzle: 3}},
	{Shape{8192, 8192, 2048}, DefaultConfig(Shape{8192, 8192, 2048})},
}

// codecRejects are plan definitions UnmarshalJSON must refuse.
var codecRejects = map[string]string{
	"grid disagrees": `{"Shape":{"M":512,"N":768,"K":64},"Cfg":{"TileM":128,"TileN":128,"Swizzle":2},"RowTiles":4,"ColTiles":6,"Tiles":25}`,
	"invalid shape":  `{"Shape":{"M":0,"N":768,"K":64},"Cfg":{"TileM":128,"TileN":128,"Swizzle":2},"RowTiles":0,"ColTiles":6,"Tiles":0}`,
	"invalid tile":   `{"Shape":{"M":512,"N":768,"K":64},"Cfg":{"TileM":0,"TileN":128,"Swizzle":2},"RowTiles":0,"ColTiles":6,"Tiles":0}`,
	"over MaxTiles":  `{"Shape":{"M":1073741824,"N":1073741824,"K":1},"Cfg":{"TileM":1,"TileN":1,"Swizzle":3},"RowTiles":1073741824,"ColTiles":1073741824,"Tiles":1152921504606846976}`,
}

// A decoded plan is indistinguishable from NewPlan's: the launch order
// follows from the definition, not from shipped arrays. Shipping the order
// and its inverse would put 2×4096 ints into the last plan's encoding, so
// every encoding must stay under 200 bytes.
func TestPlanJSONRoundTrip(t *testing.T) {
	for _, c := range codecPlans {
		want := mustPlan(t, c.shape, c.cfg)
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) >= 200 {
			t.Fatalf("%d-tile plan encodes in %d bytes, want < 200: %s", want.Tiles, len(b), b)
		}
		var got Plan
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%v %+v: %v", c.shape, c.cfg, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("%v %+v: decoded plan differs from NewPlan's", c.shape, c.cfg)
		}
	}
}

// A rejected definition returns an error and leaves the target as it was.
func TestPlanJSONRejects(t *testing.T) {
	for name, in := range codecRejects {
		want := mustPlan(t, Shape{256, 512, 64}, Config{TileM: 128, TileN: 128, Swizzle: 3})
		got := *mustPlan(t, Shape{256, 512, 64}, Config{TileM: 128, TileN: 128, Swizzle: 3})
		err := json.Unmarshal([]byte(in), &got)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("%s: rejected definition modified its target", name)
		}
		if name == "over MaxTiles" && !errors.Is(err, ErrTooManyTiles) {
			t.Fatalf("%s: error %v does not wrap ErrTooManyTiles", name, err)
		}
	}
}

// FuzzPlanJSON: any input is either rejected, leaving the target zero, or
// decoded into exactly NewPlan's plan, which then round-trips. Never a
// panic.
func FuzzPlanJSON(f *testing.F) {
	for _, c := range codecPlans {
		p, err := NewPlan(c.shape, c.cfg)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, in := range codecRejects {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Plan
		if err := json.Unmarshal(data, &p); err != nil {
			if !reflect.DeepEqual(p, Plan{}) {
				t.Fatalf("rejected input %q wrote its target", data)
			}
			return
		}
		want, err := NewPlan(p.Shape, p.Cfg)
		if err != nil {
			t.Fatalf("accepted %q, which NewPlan rejects: %v", data, err)
		}
		if !reflect.DeepEqual(&p, want) {
			t.Fatalf("decoded %q into a plan that differs from NewPlan's", data)
		}
		b, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		var back Plan
		if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(&back, want) {
			t.Fatalf("re-encoded plan %s does not round-trip: %v", b, err)
		}
	})
}
