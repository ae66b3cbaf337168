package store

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// segmentBytes is a WAL segment as the store writes it: the header for
// epoch, then one checked frame per record.
func segmentBytes(epoch uint64, recs ...Record) []byte {
	var buf bytes.Buffer
	buf.WriteString(segmentMagic)
	buf.WriteByte(formatVersion)
	buf.Write(binary.LittleEndian.AppendUint64(nil, epoch))
	for _, r := range recs {
		buf.Write(appendFrame(nil, r))
	}
	return buf.Bytes()
}

// FuzzReadSegment feeds arbitrary bytes to the WAL reader — the one
// parser in the tree whose input is whatever a crash left on disk.
//
// As the final segment the bytes may end anywhere: the reader must not
// panic, must stop at the first tear (validOff never exceeds the input
// and nothing past it is returned), and what it does return must be
// exactly what is on disk — header plus records re-encode, byte for
// byte, to the input's first validOff bytes. The same bytes as an
// earlier segment get no such latitude: they parse to the end, to the
// same records, or they are an error.
func FuzzReadSegment(f *testing.F) {
	// The checked-in corpus (testdata/fuzz/FuzzReadSegment) holds the
	// format-5 shapes by name: header only, one block record, block +
	// rotate + counted drop, a torn length prefix, a bad CRC, an old
	// and a future version. These two are the shapes it lacks.
	f.Add([]byte{})
	f.Add(append(segmentBytes(1), 0, 0, 0, 6, RecordDrop, 1, 0, 0, 0)) // payload cut short

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, epoch, validOff, torn, err := parseSegment(bytes.NewReader(data), true)
		if err == nil {
			if validOff < 0 || validOff > int64(len(data)) {
				t.Fatalf("validOff %d outside the %d-byte segment", validOff, len(data))
			}
			if torn == (validOff == int64(len(data)) && validOff >= int64(segmentHeaderLen)) {
				t.Fatalf("torn = %v with validOff %d of %d bytes", torn, validOff, len(data))
			}
			if validOff < int64(segmentHeaderLen) {
				// Torn inside the header: nothing was read.
				if validOff != 0 || len(recs) != 0 {
					t.Fatalf("segment torn in its header returned validOff %d and %d records", validOff, len(recs))
				}
			} else if !bytes.Equal(segmentBytes(epoch, recs...), data[:validOff]) {
				t.Fatalf("the %d records read do not re-encode to the segment's first %d bytes", len(recs), validOff)
			}
		}

		mid, midEpoch, midOff, midTorn, midErr := parseSegment(bytes.NewReader(data), false)
		if midErr != nil {
			return
		}
		if err != nil || torn || midTorn || midOff != int64(len(data)) || midOff != validOff || midEpoch != epoch {
			t.Fatalf("an earlier segment parsed clean to %d of %d bytes; as the final one: validOff %d, torn %v, err %v",
				midOff, len(data), validOff, torn, err)
		}
		if !bytes.Equal(segmentBytes(midEpoch, mid...), data) {
			t.Fatalf("an earlier segment's %d records do not re-encode to its bytes", len(mid))
		}
	})
}
