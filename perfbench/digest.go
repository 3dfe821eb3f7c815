package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"r2c2/internal/sim"
	"r2c2/internal/stats"
)

// digest fingerprints everything a simulation run reports except
// ShardStats, whose wall-clock fields differ between otherwise identical
// runs. It is order-sensitive over Flows, so a serial and a sharded run
// agree only if they create, finish and report every flow identically.
func digest(res *sim.Results) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putSample := func(s stats.Sample) {
		vals := s.Values()
		put(uint64(len(vals)))
		for _, v := range vals {
			put(math.Float64bits(v))
		}
	}
	boolBit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}

	put(uint64(res.Transport))
	put(uint64(len(res.Flows)))
	for _, f := range res.Flows {
		put(uint64(f.ID))
		put(uint64(f.Src))
		put(uint64(f.Dst))
		put(uint64(f.SizeBytes))
		put(uint64(f.Started))
		put(uint64(f.Finished))
		put(boolBit(f.Done))
		put(uint64(f.BytesRcvd))
		put(boolBit(f.SenderDone))
	}
	put(uint64(res.Completed))
	put(uint64(res.Incomplete))
	putSample(res.ShortFCT)
	putSample(res.LongThroughput)
	putSample(res.AllFCT)
	putSample(res.MaxQueue)
	putSample(res.Reorder)
	for _, c := range []uint64{
		res.FailureReroutes, res.Drops, res.Retransmissions, res.BcastBytes,
		res.Recomputations, res.RecomputeRounds, res.Events, uint64(res.EndTime),
	} {
		put(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}
