package wire

import "testing"

// BenchmarkVoteBatchCodec times the VoteBatch codec per vote on 1024-vote
// session-bound frames, through the entry points the cluster uses
// (BatchEncoder.AppendSession, DecodeBodySession with a reused scratch).
// "run" is one node's votes on consecutive trials, the shape of every
// clean cluster batch; "adversarial" has wide deltas in both columns and
// takes the column path both ways.
func BenchmarkVoteBatchCodec(b *testing.B) {
	const n = 1024
	for _, c := range []struct {
		name  string
		votes []BatchVote
	}{
		{"run", seqVotes(42, n)},
		{"adversarial", advVotes(1, n)},
	} {
		vb := &VoteBatch{Votes: c.votes}
		var enc BatchEncoder
		frame, err := enc.AppendSession(nil, vb, 1, TraceContext{}, false)
		if err != nil {
			b.Fatal(err)
		}
		perVote := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/vote")
		}
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := append([]byte(nil), frame...)
			for i := 0; i < b.N; i++ {
				if buf, err = enc.AppendSession(buf[:0], vb, 1, TraceContext{}, false); err != nil {
					b.Fatal(err)
				}
			}
			perVote(b)
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sc DecodeScratch
			for i := 0; i < b.N; i++ {
				if _, _, _, err := DecodeBodySession(frame[headerBytes:], &sc); err != nil {
					b.Fatal(err)
				}
			}
			perVote(b)
		})
	}
}
