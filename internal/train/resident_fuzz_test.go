package train

import (
	"slices"
	"testing"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/graph"
	"buffalo/internal/obs"
)

// FuzzResidentRows drives the sequential stager of a two-replica engine over
// a 24-node graph (8-byte rows) through random sequences of stage, release
// (after a good or a failed compute), reclaim (another tenant charging a
// device), tenant free and drop operations, against a plain model: an
// lruOracle per replica and each device's live bytes. A stage copies
// exactly the rows its replica's oracle does not hold and fails with an OOM
// exactly when live + its feature bytes exceed the capacity; every charge
// drops the oldest rows until live + rows × rowBytes fits; a good release
// appends the micro-batch's rows as the newest; a failed compute, a failed
// stage and a drop empty every replica. The model also holds each device's
// cached bytes exactly — a stage hands its hits back before its charge, so
// the charge reclaims only what it must — and the bytes the recorded
// "reclaim" marks add up to. After the stager's own operations the resident
// sets they touched list exactly the model's rows in its order, with
// nothing else cached.
//
// The first byte sets the capacity (a whole number of rows plus 0–7
// bytes); then each operation is an opcode and three argument bytes.
func FuzzResidentRows(f *testing.F) {
	const (
		opStage = iota // replica a%2; node mask a|b<<8|c<<16, listed from node a%24 on
		opRelease
		opFail
		opReclaim // replica a%2 charges b bytes
		opFree    // the oldest tenant charge goes
		opDrop
		numOps
	)
	// Neighbours sharing rows on one replica, then across both.
	f.Add([]byte{160,
		opStage, 0, 0x0f, 0, opRelease, 0, 0, 0, opStage, 2, 0x3c, 0, opRelease, 0, 0, 0,
		opStage, 1, 0xf0, 0x01, opRelease, 0, 0, 0, opStage, 0, 0xff, 0, opRelease, 0, 0, 0})
	// A tight device: tenants reclaim rows mid-compute and between
	// micro-batches, a part-row is left behind, then a stage OOMs.
	f.Add([]byte{12 | 5<<5,
		opStage, 0, 0xff, 0x0f, opRelease, 0, 0, 0, opReclaim, 0, 30, 0,
		opStage, 2, 0x0f, 0xf0, opReclaim, 0, 17, 0, opRelease, 0, 0, 0,
		opFree, 0, 0, 0, opStage, 4, 0xff, 0xff, opRelease, 0, 0, 0})
	// A failed compute and a drop with both replicas holding rows.
	f.Add([]byte{100,
		opStage, 0, 0x33, 0, opRelease, 0, 0, 0, opStage, 1, 0x66, 0, opRelease, 0, 0, 0,
		opStage, 0, 0x0f, 0, opFail, 0, 0, 0, opStage, 1, 0x66, 0, opRelease, 0, 0, 0,
		opDrop, 0, 0, 0, opStage, 1, 0x66, 0, opRelease, 0, 0, 0})
	// A stage that finds 3 of its 9 rows on a 10-row device holding 7:
	// handing the hits back first leaves the charge 3 rows to reclaim, not 6.
	f.Add([]byte{2,
		opStage, 0x0e, 0, 0, opRelease, 0, 0, 0, opStage, 0xf0, 0, 0, opRelease, 0, 0, 0,
		opStage, 0x0e, 0x3f, 0, opRelease, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const nodes, rowBytes = 24, 8
		capacity := int64(8+data[0]%32)*rowBytes + int64(data[0]>>5)
		tr := obs.NewTrace()
		rec := obs.NewRecorder(tr, nil)
		e := &engine{
			data:     &datagen.Dataset{Graph: graph.FromAdjacency(make([][]graph.NodeID, nodes))},
			rowBytes: rowBytes,
			resident: make([]residentRows, 2),
		}
		names := []string{"f0", "f1"}
		for _, name := range names {
			e.replicas = append(e.replicas, replica{gpu: device.NewGPU(name, capacity, device.WithRecorder(rec))})
		}
		// The model: per replica the oracle's rows, the device's live and
		// cached bytes, and the bytes charges have reclaimed.
		oracle := make([]lruOracle, 2)
		live, cached, reclaimed := make([]int64, 2), make([]int64, 2), make([]int64, 2)
		type tenant struct {
			dev int
			a   *device.Allocation
		}
		var tenants []tenant
		var staged *stagedMB
		// charged is a successful charge of size bytes on replica d: it
		// reclaims the excess over capacity, and the oldest rows give way.
		charged := func(d int, size int64) {
			live[d] += size
			if over := live[d] + cached[d] - capacity; over > 0 {
				cached[d] -= over
				reclaimed[d] += over
			}
			oracle[d].keep(cached[d] / rowBytes)
		}
		// synced is the stager settling replica d's set to its device.
		synced := func(d int) { cached[d] = int64(len(oracle[d])) * rowBytes }
		dropAll := func() {
			for d := range oracle {
				oracle[d], cached[d] = nil, 0
			}
		}
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			op, a, b, c := ops[0]%numOps, ops[1], ops[2], ops[3]
			exact := -1 // the replica whose set the op settled, 2 for both
			switch op {
			case opStage:
				if staged != nil {
					continue
				}
				d := int(a % 2)
				mask := uint32(a) | uint32(b)<<8 | uint32(c)<<16
				var in []graph.NodeID
				for j := 0; j < nodes; j++ {
					if v := (j + int(a)) % nodes; mask&(1<<v) != 0 {
						in = append(in, graph.NodeID(v))
					}
				}
				gpu := e.replicas[d].gpu
				pre := gpu.Stats().Transferred
				synced(d)
				hits := oracle[d].take(in)
				cached[d] -= hits * rowBytes
				smb, err := seqStager{e}.stage(inputIter([][]graph.NodeID{in, in}), d)
				feat := int64(len(in)) * rowBytes
				if fits := live[d]+feat <= capacity; fits != (err == nil) || (err != nil && !device.IsOOM(err)) {
					t.Fatalf("stage of %d rows on replica %d at live %d of %d: err %v", len(in), d, live[d], capacity, err)
				}
				exact = d
				if err != nil {
					dropAll()
					exact = 2
				} else {
					staged = smb
					charged(d, feat)
					synced(d)
					if got, want := gpu.Stats().Transferred-pre, (int64(len(in))-hits)*rowBytes; got != want {
						t.Fatalf("stage of %d rows on replica %d copied %d bytes, want %d", len(in), d, got, want)
					}
				}
			case opRelease, opFail:
				if staged == nil {
					continue
				}
				d := staged.dev
				seqStager{e}.release(staged, op == opRelease)
				live[d] -= e.featBytes(staged.mb)
				exact = d
				if op == opRelease {
					synced(d)
					oracle[d].push(staged.mb.InputNodes())
					cached[d] += e.featBytes(staged.mb)
				} else {
					dropAll()
					exact = 2
				}
				staged = nil
			case opReclaim:
				d := int(a % 2)
				if alloc, err := e.replicas[d].gpu.Alloc("tenant", int64(b)); err == nil {
					tenants = append(tenants, tenant{d, alloc})
					charged(d, int64(b))
				} else if live[d]+int64(b) <= capacity {
					t.Fatalf("tenant charge of %d bytes on replica %d failed at live %d of %d: %v", b, d, live[d], capacity, err)
				}
			case opFree:
				if len(tenants) > 0 {
					tn := tenants[0]
					tenants = tenants[1:]
					tn.a.Free()
					live[tn.dev] -= tn.a.Bytes
				}
			case opDrop:
				e.dropResident()
				dropAll()
				exact = 2
			}
			for d, r := range e.replicas {
				rows := int64(len(oracle[d]))
				if r.gpu.Live() != live[d] || r.gpu.Cached() != cached[d] {
					t.Fatalf("after op %d: replica %d live %d cached %d, model live %d cached %d",
						op, d, r.gpu.Live(), r.gpu.Cached(), live[d], cached[d])
				}
				if (exact == d || exact == 2) && (cached[d] != rows*rowBytes || e.resident[d].rows != rows ||
					!slices.Equal(setRows(&e.resident[d]), []graph.NodeID(oracle[d]))) {
					t.Fatalf("after op %d: replica %d resident set %v (%d cached bytes), model %v",
						op, d, setRows(&e.resident[d]), cached[d], oracle[d])
				}
			}
		}
		for d, name := range names {
			var marked int64
			for _, ev := range tr.Events() {
				if ev.Kind == obs.KindMark && ev.Dev == name && ev.Name == "reclaim" {
					marked += ev.Bytes
				}
			}
			if marked != reclaimed[d] {
				t.Fatalf("replica %d: reclaim marks total %d bytes, model %d", d, marked, reclaimed[d])
			}
		}
	})
}
