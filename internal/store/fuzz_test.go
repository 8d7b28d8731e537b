package store

import (
	"reflect"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to the record verifier that
// guards disk and peer records — untrusted input either way. It must
// never panic, and any input it accepts must re-encode to a record that
// decodes to the same Report.
func FuzzDecodeRecord(f *testing.F) {
	const key = "mode=1,|ws=tf@0.001,|policy=default|ctx=1,"
	rec, err := EncodeRecord(key, sampleReport())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	for _, n := range []int{0, 1, len(rec) / 2, len(rec) - 1} {
		f.Add(rec[:n])
	}
	for _, i := range []int{0, len(rec) / 3, len(rec) / 2, len(rec) - 2} {
		flipped := append([]byte(nil), rec...)
		flipped[i] ^= 0x01
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeRecord(data, key)
		if err != nil {
			return
		}
		again, err := EncodeRecord(key, rep)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		back, err := DecodeRecord(again, key)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(rep, back) {
			t.Fatalf("re-encoded record decodes differently:\n got %+v\nwant %+v", back, rep)
		}
	})
}
