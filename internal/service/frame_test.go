package service

import (
	"bytes"
	"testing"
)

const testMagic = "LBPJRNL1"

var testPayloads = [][]byte{
	[]byte(`{"op":"acquire","epoch":1}`),
	[]byte(`{"op":"renew","epoch":1}`),
}

// twoFrames returns a clean stream of the two test payloads and the offset
// of its second frame.
func twoFrames() (data []byte, second int64) {
	data = EncodeFrame(testMagic, testPayloads[0])
	second = int64(len(data))
	data = append(data, EncodeFrame(testMagic, testPayloads[1])...)
	return data, second
}

// TestDecodeFramesDamage: decoding stops at the first damaged frame and
// reports the valid prefix exactly. The first cases model crash and
// corruption shapes: a torn append without its terminator, a length field
// that disagrees with the payload, a line with the wrong magic, and a bit
// flip inside a payload that only the CRC can catch. The rest are headers
// EncodeFrame never writes, rejected even though their values match, so a
// decoded frame is always byte-for-byte what its writer produced.
func TestDecodeFramesDamage(t *testing.T) {
	intact, second := twoFrames()
	n := int64(len(intact))
	withTail := func(tail string) []byte { return append(bytes.Clone(intact), tail...) }
	flipped := bytes.Clone(intact)
	flipped[len(flipped)-4] ^= 0x40 // inside the second frame's payload

	cases := []struct {
		name       string
		data       []byte
		wantFrames int
		wantValid  int64
	}{
		{"intact", intact, 2, n},
		{"half-frame", withTail("LBPJRNL1 00ab12"), 2, n},
		{"short-payload", withTail("LBPJRNL1 00ab12cd 500 {\"op\":\"submit\"}\n"), 2, n},
		{"garbage", withTail("not a frame at all\n"), 2, n},
		{"payload-bitflip", flipped, 1, second},
		{"short-crc", withTail("LBPJRNL1 0 0 \n"), 2, n},
		{"uppercase-crc", withTail("LBPJRNL1 A93C5F93 1 x\n"), 2, n}, // CRC-32C("x") = a93c5f93
		{"padded-length", withTail("LBPJRNL1 00000000 00 \n"), 2, n},
		{"signed-length", withTail("LBPJRNL1 00000000 +0 \n"), 2, n},
	}
	for _, tc := range cases {
		frames, valid := DecodeFrames(testMagic, tc.data)
		if len(frames) != tc.wantFrames || valid != tc.wantValid {
			t.Errorf("%s: got %d frames valid to %d, want %d frames valid to %d",
				tc.name, len(frames), valid, tc.wantFrames, tc.wantValid)
			continue
		}
		for i, fr := range frames {
			if !bytes.Equal(fr.Payload, testPayloads[i]) {
				t.Errorf("%s: frame %d payload %q, want %q", tc.name, i, fr.Payload, testPayloads[i])
			}
		}
	}
	if frames, _ := DecodeFrames(testMagic, []byte("LBPJRNL1 a93c5f93 1 x\n")); len(frames) != 1 {
		t.Errorf("canonical frame of \"x\" not decoded")
	}
}

// FuzzDecodeFrames hardens the frame decoder against arbitrary journal
// bytes: it must never panic, never claim a valid prefix longer than its
// input, and every frame it returns must be exactly what EncodeFrame writes
// for that payload, at the frame's offset.
func FuzzDecodeFrames(f *testing.F) {
	intact, _ := twoFrames()
	f.Add(intact)
	f.Add([]byte{})
	f.Add(append(bytes.Clone(intact), "LBPJRNL1 00ab12cd 500 {}\n"...))
	f.Add(intact[:len(intact)-3])
	f.Add([]byte("LBPJRNL1 00000000 0 \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, valid := DecodeFrames(testMagic, data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		for _, fr := range frames {
			enc := EncodeFrame(testMagic, fr.Payload)
			if fr.Offset < 0 || fr.Offset > int64(len(data)) || !bytes.HasPrefix(data[fr.Offset:], enc) {
				t.Fatalf("frame at offset %d does not re-encode to its input bytes: %q", fr.Offset, enc)
			}
		}
	})
}
