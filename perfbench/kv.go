package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/kvstore"
	"repro/internal/proto"
)

// The kv application mirrors `psp-server -app kv`: 5000 keys with
// 64-byte values, GET by key index and SCAN over 5000 keys, typed by
// a little-endian uint16 at payload offset 0. Values here are derived
// from the key index so every GET reply can be checked.
const (
	kvKeys      = 5000
	kvValueSize = 64
	scanLimit   = 5000

	classGet  = 0
	classScan = 1

	// payloadSize is type (2) + key index (4).
	payloadSize = 6
)

// kvApp is one backend's store and the handler serving it.
type kvApp struct {
	store *kvstore.Store
	keys  [][]byte
}

// newKVApp fills a fresh store with the key-derived values.
func newKVApp() *kvApp {
	a := &kvApp{store: kvstore.New(1), keys: make([][]byte, kvKeys)}
	for i := range a.keys {
		a.keys[i] = []byte(fmt.Sprintf("key%06d", i))
		a.store.Put(a.keys[i], kvValue(uint32(i)))
	}
	return a
}

// kvValue builds the value stored under key index i.
func kvValue(i uint32) []byte {
	v := make([]byte, kvValueSize)
	binary.LittleEndian.PutUint32(v, i)
	for j := 4; j < kvValueSize; j++ {
		v[j] = byte(i*31 + uint32(j))
	}
	return v
}

// kvValues holds every expected value, so checking a reply does not
// allocate on the load generator's hot path.
var kvValues = func() [][]byte {
	vs := make([][]byte, kvKeys)
	for i := range vs {
		vs[i] = kvValue(uint32(i))
	}
	return vs
}()

// Handle implements psp.Handler.
func (a *kvApp) Handle(typ int, payload, resp []byte) (int, proto.Status) {
	switch typ {
	case classGet:
		if len(payload) < 6 {
			return 0, proto.StatusError
		}
		idx := binary.LittleEndian.Uint32(payload[2:6]) % kvKeys
		v, ok := a.store.Get(a.keys[idx])
		if !ok {
			return 0, proto.StatusError
		}
		return copy(resp, v), proto.StatusOK
	case classScan:
		entries, total := a.store.ScanCount(nil, scanLimit)
		binary.LittleEndian.PutUint32(resp[0:4], uint32(entries))
		binary.LittleEndian.PutUint32(resp[4:8], uint32(total))
		return 8, proto.StatusOK
	default:
		return 0, proto.StatusError
	}
}

// appendPayload encodes one request payload.
func appendPayload(dst []byte, class uint8, key uint32) []byte {
	var p [payloadSize]byte
	binary.LittleEndian.PutUint16(p[0:2], uint16(class))
	binary.LittleEndian.PutUint32(p[2:6], key)
	return append(dst, p[:]...)
}

// appendRequest encodes a full request message with the given id.
func appendRequest(dst []byte, id uint64, class uint8, key uint32) []byte {
	var p [payloadSize]byte
	return proto.AppendMessage(dst, proto.Header{Kind: proto.KindRequest, RequestID: id}, appendPayload(p[:0], class, key))
}

// checkReply reports whether a reply payload is the correct answer to
// a request of the given class and key.
func checkReply(class uint8, key uint32, payload []byte) bool {
	switch class {
	case classGet:
		return bytes.Equal(payload, kvValues[key%kvKeys])
	case classScan:
		return len(payload) == 8 &&
			binary.LittleEndian.Uint32(payload[0:4]) == scanLimit &&
			binary.LittleEndian.Uint32(payload[4:8]) == scanLimit*kvValueSize
	}
	return false
}
