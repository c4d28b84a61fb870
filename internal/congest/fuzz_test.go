package congest

import "testing"

// FuzzDecode ensures arbitrary payloads never panic the wire decoder and
// that valid messages survive a decode→encode→decode round trip.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(msgAnnounce), 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{byte(msgToken), 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{byte(msgTokDone)})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decode(payload)
		if err != nil {
			return
		}
		re, err := decode(appendEncode(nil, m))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re != m {
			t.Fatalf("round trip changed message: %+v vs %+v", m, re)
		}
	})
}
