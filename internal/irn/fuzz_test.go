package irn

import (
	"testing"

	"odpsim/internal/packet"
)

// The fuzz targets drive the packed structures with a byte program and
// check them after every step against naive models that number packets
// with unbounded int64 sequence numbers and keep state in plain maps and
// slices. Only the structure under test sees 24-bit wire PSNs, so the
// serial arithmetic, the bitmask shifts and the modulo slot indexing are
// all checked against code that uses none of them. Seeds start near the
// top of the PSN space (0xFFFFC0) so runs cross the wrap.

// wirePSN maps a model sequence number onto the 24-bit PSN space.
func wirePSN(start uint32, seq int64) uint32 {
	return uint32((int64(start) + seq) & (1<<24 - 1))
}

func FuzzReorderBuffer(f *testing.F) {
	f.Fuzz(func(t *testing.T, start uint32, prog []byte) {
		start &= 1<<24 - 1
		var rb ReorderBuffer
		rb.Init(start)
		var epsn int64                // model ePSN
		stashed := map[int64]uint32{} // model seq -> DMALen tag
		for i := 0; i+1 < len(prog); i += 2 {
			op, arg := prog[i]%3, prog[i+1]
			advance := 1
			if arg&0x80 != 0 {
				advance = 1 + int(arg&0x7f) // multi-PSN READ spans, some past Window
			}
			switch op {
			case 0: // an arrival at ePSN-64 .. ePSN+191
				seq := epsn + int64(arg) - 64
				psn := wirePSN(start, seq)
				want := BeyondWindow
				_, held := stashed[seq]
				switch d := seq - epsn; {
				case d == 0:
					want = InOrder
				case d < 0 || held:
					want = Duplicate
				case d < Window:
					want = OutOfOrder
				}
				if got := rb.Classify(psn); got != want {
					t.Fatalf("step %d: Classify(%#x) = %v, model %v", i, psn, got, want)
				}
				switch want {
				case OutOfOrder:
					rb.Stash(&packet.Packet{PSN: psn, DMALen: uint32(i)})
					stashed[seq] = uint32(i)
				case InOrder:
					rb.Advance(advance)
					epsn += int64(advance)
				}
			case 1: // a sweep step: execute the head, advancing by its span
				h, ok := rb.Head()
				tag, held := stashed[epsn]
				if ok != held {
					t.Fatalf("step %d: Head ok = %v, model %v", i, ok, held)
				}
				if !ok {
					break
				}
				if h.PSN != wirePSN(start, epsn) || h.DMALen != tag {
					t.Fatalf("step %d: head = psn %#x tag %d, model psn %#x tag %d",
						i, h.PSN, h.DMALen, wirePSN(start, epsn), tag)
				}
				rb.Advance(advance)
				epsn += int64(advance)
			case 2: // the head faults: drop it for the retransmission
				if _, ok := rb.Head(); ok {
					rb.DropHead()
				}
				delete(stashed, epsn)
			}
			for seq := range stashed {
				if seq < epsn {
					delete(stashed, seq)
				}
			}
			if got := rb.EPSN(); got != wirePSN(start, epsn) {
				t.Fatalf("step %d: EPSN = %#x, model %#x", i, got, wirePSN(start, epsn))
			}
			if got := rb.Buffered(); got != len(stashed) {
				t.Fatalf("step %d: Buffered = %d, model %d", i, got, len(stashed))
			}
			base, bm := rb.Sack()
			var want uint64
			for seq := range stashed {
				want |= 1 << uint(seq-epsn)
			}
			if base != wirePSN(start, epsn) || bm != want {
				t.Fatalf("step %d: Sack = (%#x, %b), model (%#x, %b)", i, base, bm, wirePSN(start, epsn), want)
			}
		}
	})
}

func FuzzTxAccount(f *testing.F) {
	type msg struct {
		first int64
		bytes int
	}
	f.Fuzz(func(t *testing.T, start uint32, bdp uint16, prog []byte) {
		start &= 1<<24 - 1
		var tx TxAccount
		tx.Init(int(bdp), start)
		var next int64 // model next PSN; the base is out[0].first, or next
		var out []msg
		charged := 0
		for i := 0; i+2 < len(prog); i += 3 {
			op, a, b := prog[i]%2, prog[i+1], prog[i+2]
			switch op {
			case 0: // offer a message spanning 1..128 PSNs
				npsn := 1 + int(a&0x7f)
				bytes := int(b)*64 + 48
				base := next
				if len(out) > 0 {
					base = out[0].first
				}
				want := len(out) == 0 ||
					(next+int64(npsn)-base <= Window && (charged == 0 || charged+bytes <= int(bdp)))
				if got := tx.CanSend(bytes, npsn); got != want {
					t.Fatalf("step %d: CanSend(%d, %d) = %v, model %v (outstanding %d msgs, %d B)",
						i, bytes, npsn, got, want, len(out), charged)
				}
				if !want {
					break
				}
				tx.OnSend(wirePSN(start, next), npsn, bytes)
				out = append(out, msg{next, bytes})
				next += int64(npsn)
				charged += bytes
			case 1: // the oldest 1..len(out) messages complete in order
				if len(out) == 0 {
					break
				}
				k := 1 + int(a)%len(out)
				for _, m := range out[:k] {
					charged -= m.bytes
				}
				out = out[k:]
				upto := next
				if len(out) > 0 {
					upto = out[0].first
				}
				tx.Complete(wirePSN(start, upto))
			}
			if got := tx.Outstanding(); got != charged {
				t.Fatalf("step %d: Outstanding = %d, model %d", i, got, charged)
			}
		}
	})
}
