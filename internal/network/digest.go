package network

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint returns a SHA-256 digest over the network's complete
// observable state: network-wide counters, the clock, packet-ID allocator,
// per-node source-queue and injection-stream state, per-source outstanding
// counts, recovery-Token state, and every router's full microstate (via
// router.AppendState). Two networks with equal fingerprints behave
// identically from here on for equal future inputs; the golden-digest suite
// uses this to prove the reference scan path is byte-identical to the
// optimized one and to pin simulation behavior against a committed golden
// file.
func (n *Network) Fingerprint() [32]byte {
	b := make([]byte, 0, 4096)
	put := func(v int64) {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}

	c := n.Counters()
	put(int64(c.Cycles))
	put(c.PacketsOffered)
	put(c.PacketsRefused)
	put(c.PacketsInjected)
	put(c.PacketsDelivered)
	put(c.FlitsDelivered)
	put(c.PacketsKilled)
	put(c.TokenSeizures)
	put(c.Recoveries)
	put(c.TimeoutEvents)
	put(c.FalseDetections)
	put(c.MisrouteHops)
	put(c.Preemptions)
	put(c.BlockedCycles)
	put(c.TokenTransit)
	put(c.TokenHold)
	put(c.PacketsLost)
	put(c.FlitsLost)
	put(c.PacketsUnroutable)

	put(int64(n.nextID))
	for i := range n.nis {
		q := &n.nis[i]
		put(int64(q.queued()))
		for j := q.qhead; j < len(q.queue); j++ {
			put(int64(q.queue[j].ID))
		}
		if q.cur != nil {
			put(int64(q.cur.ID))
			put(int64(q.seq))
		} else {
			put(-1)
		}
	}
	for _, o := range n.outstanding {
		put(int64(o))
	}
	if n.token != nil {
		put(int64(n.token.Position()))
		if n.token.Held() {
			put(int64(n.token.Holder().ID))
		} else {
			put(-1)
		}
	}
	for _, r := range n.routers {
		b = r.AppendState(b)
	}
	return sha256.Sum256(b)
}

// FingerprintHex returns Fingerprint as a hex string, the form committed to
// the golden-digest file.
func (n *Network) FingerprintHex() string {
	d := n.Fingerprint()
	return hex.EncodeToString(d[:])
}
