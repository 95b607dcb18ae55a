package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// emptyFieldMessages carries every byte-bearing message with its byte
// fields present but zero-length.
func emptyFieldMessages() []Message {
	empty := Object{Table: 1, KeyHash: 2, Key: []byte{}, Value: []byte{}, Version: 3}
	return []Message{
		&ReadReq{Table: 1, Key: []byte{}},
		&ReadResp{Status: StatusOK, Version: 1, Value: []byte{}},
		&WriteReq{Table: 1, Key: []byte{}, Value: []byte{}},
		&DeleteReq{Table: 1, Key: []byte{}},
		&MultiReadReq{Items: []MultiReadItem{{Table: 1, Key: []byte{}}}},
		&MultiReadResp{Status: StatusOK, Items: []MultiReadResult{{Status: StatusOK, Value: []byte{}}}},
		&MultiWriteReq{Items: []MultiWriteItem{{Table: 1, Key: []byte{}, Value: []byte{}}}},
		&ReplicateReq{Master: 1, Segment: 2, Objects: []Object{empty}},
		&GetRecoveryDataResp{Status: StatusOK, Objects: []Object{empty}},
		&RDMAWriteReq{Master: 1, Segment: 2, Objects: []Object{empty}},
		&TakeTabletReq{Table: 1, Objects: []Object{empty}},
	}
}

// walkBytes calls fn on every []byte reachable from v through pointers,
// structs and slices, with a path naming the field.
func walkBytes(v reflect.Value, path string, fn func(path string, b []byte)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			walkBytes(v.Elem(), path, fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkBytes(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			fn(path, v.Bytes())
			return
		}
		for i := 0; i < v.Len(); i++ {
			walkBytes(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	}
}

// TestUnmarshalNeverAliasesInput pins the decoder's ownership rule: a
// decoded message references none of the input buffer, so overwriting
// the buffer (as the transport does when it recycles a frame buffer)
// leaves the message unchanged. Masters rely on this to keep a request's
// key and value bytes in their log without copying them again.
func TestUnmarshalNeverAliasesInput(t *testing.T) {
	for _, msg := range append(allMessages(), emptyFieldMessages()...) {
		b, err := Marshal(Envelope{RPCID: 5, Msg: msg})
		if err != nil {
			t.Fatalf("%T: Marshal: %v", msg, err)
		}
		env, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: Unmarshal: %v", msg, err)
		}
		lo := uintptr(unsafe.Pointer(&b[0]))
		hi := lo + uintptr(len(b))
		walkBytes(reflect.ValueOf(env.Msg), fmt.Sprintf("%T", msg), func(path string, f []byte) {
			if len(f) == 0 {
				return
			}
			if p := uintptr(unsafe.Pointer(&f[0])); p >= lo && p < hi {
				t.Errorf("%s aliases the input buffer", path)
			}
		})
		before := fmt.Sprintf("%#v", env.Msg)
		for i := range b {
			b[i] = 0xA5
		}
		if after := fmt.Sprintf("%#v", env.Msg); after != before {
			t.Errorf("%T changed when its input buffer was overwritten:\n before %s\n after  %s", msg, before, after)
		}
	}
}

// TestUnmarshalEmptyFieldsNonNil pins the decoding of zero-length byte
// fields: each decodes as a non-nil empty slice.
func TestUnmarshalEmptyFieldsNonNil(t *testing.T) {
	for _, msg := range emptyFieldMessages() {
		b, err := Marshal(Envelope{RPCID: 1, Msg: msg})
		if err != nil {
			t.Fatalf("%T: Marshal: %v", msg, err)
		}
		env, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: Unmarshal: %v", msg, err)
		}
		fields := 0
		walkBytes(reflect.ValueOf(env.Msg), fmt.Sprintf("%T", msg), func(path string, f []byte) {
			fields++
			if f == nil || len(f) != 0 {
				t.Errorf("%s = %#v, want non-nil empty", path, f)
			}
		})
		if fields == 0 {
			t.Errorf("%T: no byte fields decoded", msg)
		}
	}
}

// hugeCountFrame is a list-carrying message whose item count claims
// ~2^32 items while the body holds none.
func hugeCountFrame(msg Message, countOff int) []byte {
	b, err := Marshal(Envelope{RPCID: 1, Msg: msg})
	if err != nil {
		panic(err)
	}
	binary.LittleEndian.PutUint32(b[headerSize+countOff:], 0xFFFFFFFF)
	return b
}

// hugeCountFrames covers the three batched data-plane lists.
func hugeCountFrames() [][]byte {
	return [][]byte{
		hugeCountFrame(&MultiReadReq{}, 0),
		hugeCountFrame(&MultiReadResp{Status: StatusOK}, 1),
		hugeCountFrame(&MultiWriteReq{}, 0),
	}
}

// TestHugeListCountBounded checks that a frame claiming billions of
// items in a tiny body is rejected without allocating for the claim.
func TestHugeListCountBounded(t *testing.T) {
	for _, b := range hugeCountFrames() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(b)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("op %d: err = %v, want ErrTruncated", b[0], err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("op %d: decoding a %d-byte frame allocated %d bytes", b[0], len(b), grew)
		}
	}
}
