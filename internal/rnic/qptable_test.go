package rnic

import (
	"reflect"
	"testing"

	"odpsim/internal/congestion"
	"odpsim/internal/packet"
	"odpsim/internal/telemetry"
)

// TestQPTableEdges drives the server's receive path with packets whose
// DestQP has no RC QP behind it: QPN 0, a QPN past the end of the
// dispatch table, and a UD QPN sitting inside it. Each must be dropped
// without a panic and without moving any counter on either device; UD
// traffic to the UD QPN must still be delivered.
func TestQPTableEdges(t *testing.T) {
	cfg := congestion.DefaultConfig()
	cfg.DCQCN.Enabled = true
	eng, fab, qpC, client, server, rbuf := dcqcnPair(t, cfg)
	cq := NewCQ(eng)
	ud := server.CreateUDQP(cq, cq) // QPN 2, inside the table...
	rc := server.CreateQP(cq, cq)   // ...once RC QPN 3 extends it
	if ud.Num != 2 || rc.Num != 3 {
		t.Fatalf("QPNs = ud %d, rc %d; want 2 and 3", ud.Num, rc.Num)
	}

	pool := fab.Pool()
	snap := func() []telemetry.Sample {
		return telemetry.NewHub(client.Telemetry(), server.Telemetry()).Snapshot(eng.Now()).Samples
	}
	// inject hands the server one arrival the way fabric delivery does:
	// a borrow that returns to the pool after the handler.
	inject := func(op packet.Opcode, qpn uint32, ecn bool) {
		pkt := pool.Get()
		pkt.Opcode = op
		pkt.DestQP = qpn
		pkt.SrcQP = qpC.Num
		pkt.SLID = client.LID()
		pkt.DLID = server.LID()
		pkt.PayloadLen = 64
		pkt.ECN = ecn
		server.receive(pkt)
		pool.Put(pkt)
	}

	ops := []packet.Opcode{
		packet.OpSendOnly, packet.OpWriteOnly, packet.OpReadRequest, packet.OpFetchAdd,
		packet.OpReadRespOnly, packet.OpAcknowledge, packet.OpAtomicResp, packet.OpCNP,
	}
	for _, qpn := range []uint32{0, ud.Num, 4, 1 << 20, ^uint32(0)} {
		for _, op := range ops {
			before := snap()
			inject(op, qpn, false)
			if after := snap(); !reflect.DeepEqual(before, after) {
				t.Errorf("%v to QPN %d moved a counter", op, qpn)
			}
		}
		// An ECN-marked request to a missing QP is a mark the
		// notification point saw, but there is no QP to pace a CNP for.
		marked, cnps := server.EcnMarked, server.CnpSent
		inject(packet.OpWriteOnly, qpn, true)
		if server.EcnMarked != marked+1 || server.CnpSent != cnps {
			t.Errorf("ECN-marked WRITE to QPN %d: ecn_marked +%d, cnp_sent +%d; want +1, +0",
				qpn, server.EcnMarked-marked, server.CnpSent-cnps)
		}
	}
	// A datagram to an RC QPN has no UD QP to land in.
	before := snap()
	inject(packet.OpUDSend, rc.Num, false)
	if after := snap(); !reflect.DeepEqual(before, after) {
		t.Error("UD send to an RC QPN moved a counter")
	}

	ud.PostRecv(RecvWR{ID: 9, Addr: rbuf, Len: 64})
	inject(packet.OpUDSend, ud.Num, false)
	if ud.Delivered != 1 {
		t.Fatalf("UD QP delivered %d datagrams, want 1", ud.Delivered)
	}
	if cqes := cq.Poll(0); len(cqes) != 1 || cqes[0].WRID != 9 || !cqes[0].Recv {
		t.Fatalf("UD receive completions = %+v", cqes)
	}
	eng.MustRun()
	if bal := pool.Balance(); bal != 0 {
		t.Fatalf("pool balance = %d", bal)
	}
}
