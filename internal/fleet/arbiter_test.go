package fleet

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestArbitrateSingleTenantGetsPool(t *testing.T) {
	t.Parallel()
	for _, pool := range []uint64{0, 1, 2 << 20, 123456789, 1 << 40} {
		grants, err := Arbitrate(pool, []Demand{{Name: "solo", Priority: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if grants[0] != pool {
			t.Fatalf("pool %d: lone tenant granted %d", pool, grants[0])
		}
	}
}

func TestArbitratePriorityWeighting(t *testing.T) {
	t.Parallel()
	pool := uint64(300 << 20)
	grants, err := Arbitrate(pool, []Demand{
		{Name: "a", Priority: 2},
		{Name: "b", Priority: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if grants[0] <= grants[1] {
		t.Fatalf("priority 2 granted %d <= priority 1 granted %d", grants[0], grants[1])
	}
	if grants[0]+grants[1] != pool {
		t.Fatalf("grants %d+%d != pool %d", grants[0], grants[1], pool)
	}
}

func TestArbitrateSLOBoost(t *testing.T) {
	t.Parallel()
	pool := uint64(300 << 20)
	flat, err := Arbitrate(pool, []Demand{
		{Name: "a", Priority: 1, SlowdownPct: 1, SLOPct: 3},
		{Name: "b", Priority: 1, SlowdownPct: 1, SLOPct: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := Arbitrate(pool, []Demand{
		{Name: "a", Priority: 1, SlowdownPct: 9, SLOPct: 3},
		{Name: "b", Priority: 1, SlowdownPct: 1, SLOPct: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if flat[0] != flat[1] {
		t.Fatalf("equal tenants granted unequally: %v", flat)
	}
	if boosted[0] <= boosted[1] {
		t.Fatalf("SLO-missing tenant not boosted: %v", boosted)
	}
}

func TestArbitrateFloorsAndOversubscription(t *testing.T) {
	t.Parallel()
	pool := uint64(100 << 20)
	grants, err := Arbitrate(pool, []Demand{
		{Name: "a", Priority: 1, FloorBytes: 90 << 20},
		{Name: "b", Priority: 9, FloorBytes: 5 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if grants[0] < 90<<20 || grants[1] < 5<<20 {
		t.Fatalf("floors violated: %v", grants)
	}
	_, err = Arbitrate(pool, []Demand{
		{Name: "a", Priority: 1, FloorBytes: 90 << 20},
		{Name: "b", Priority: 1, FloorBytes: 20 << 20},
	})
	if !errors.Is(err, errOversubscribed) {
		t.Fatalf("want ErrOversubscribed, got %v", err)
	}
}

// decodeDemands derives a tenant population from fuzz bytes: 26 bytes per
// tenant, up to 64 tenants. Priorities land in [1, 8] so only the
// pool/floor geometry is fuzzed through the error path.
func decodeDemands(data []byte) []Demand {
	const rec = 26
	n := len(data) / rec
	if n > 64 {
		n = 64
	}
	ds := make([]Demand, 0, n)
	for i := 0; i < n; i++ {
		b := data[i*rec : (i+1)*rec]
		ds = append(ds, Demand{
			Priority:    1 + int(b[0]%8),
			FloorBytes:  binary.LittleEndian.Uint64(b[1:9]),
			DemandBytes: binary.LittleEndian.Uint64(b[9:17]),
			SlowdownPct: float64(binary.LittleEndian.Uint32(b[17:21])) / 1000,
			SLOPct:      float64(binary.LittleEndian.Uint32(b[21:25])) / 1000,
		})
	}
	return ds
}

// FuzzFleetArbiter holds Arbitrate to its contract on arbitrary pools and
// tenant populations: error-free rounds hand out exactly the pool with
// every floor honored; error rounds only ever reject genuinely
// oversubscribed floors; and the function is a pure deterministic map.
func FuzzFleetArbiter(f *testing.F) {
	seed := func(pool uint64, ds []Demand) {
		data := make([]byte, 0, len(ds)*26)
		for _, d := range ds {
			var b [26]byte
			b[0] = byte(d.Priority - 1)
			binary.LittleEndian.PutUint64(b[1:9], d.FloorBytes)
			binary.LittleEndian.PutUint64(b[9:17], d.DemandBytes)
			binary.LittleEndian.PutUint32(b[17:21], uint32(d.SlowdownPct*1000))
			binary.LittleEndian.PutUint32(b[21:25], uint32(d.SLOPct*1000))
			data = append(data, b[:]...)
		}
		f.Add(pool, data)
	}
	seed(1<<30, []Demand{{Priority: 1}})
	seed(1<<30, []Demand{
		{Priority: 2, FloorBytes: 64 << 20, SlowdownPct: 5, SLOPct: 3},
		{Priority: 1, FloorBytes: 32 << 20, SlowdownPct: 1, SLOPct: 3},
		{Priority: 8, FloorBytes: 0, SlowdownPct: 50, SLOPct: 1},
	})
	seed(100<<20, []Demand{
		{Priority: 1, FloorBytes: 90 << 20},
		{Priority: 1, FloorBytes: 20 << 20},
	})
	seed(0, []Demand{{Priority: 1}, {Priority: 4}})
	seed(math.MaxUint64, []Demand{
		{Priority: 8, FloorBytes: math.MaxUint64 / 2},
		{Priority: 8, FloorBytes: math.MaxUint64 / 2},
	})

	f.Fuzz(func(t *testing.T, pool uint64, data []byte) {
		ds := decodeDemands(data)
		grants, err := Arbitrate(pool, ds)
		if err != nil {
			if !errors.Is(err, errOversubscribed) {
				t.Fatalf("unexpected error class: %v", err)
			}
			var floors uint64
			for _, d := range ds {
				next := floors + d.FloorBytes
				if next < floors { // genuine uint64 overflow oversubscribes any pool
					return
				}
				floors = next
			}
			if floors <= pool {
				t.Fatalf("rejected feasible floors: sum %d <= pool %d", floors, pool)
			}
			return
		}
		if len(ds) == 0 {
			if grants != nil {
				t.Fatalf("empty population granted %v", grants)
			}
			return
		}
		var sum uint64
		for i, g := range grants {
			if g < ds[i].FloorBytes {
				t.Fatalf("tenant %d granted %d below floor %d", i, g, ds[i].FloorBytes)
			}
			sum += g
		}
		if sum != pool {
			t.Fatalf("grants sum %d != pool %d", sum, pool)
		}
		again, err := Arbitrate(pool, ds)
		if err != nil || !reflect.DeepEqual(grants, again) {
			t.Fatalf("arbitration is not deterministic: %v vs %v (err %v)", grants, again, err)
		}
	})
}
