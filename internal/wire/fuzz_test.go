package wire

import "testing"

// FuzzDecode feeds arbitrary bytes to Unmarshal: it must never panic or
// over-read, and anything it accepts must re-encode and decode to the same
// opcode. This is the groundwork for a real-transport backend, where the
// decoder faces bytes from the network rather than from Marshal.
func FuzzDecode(f *testing.F) {
	for _, msg := range allMessages() {
		if b, err := Marshal(Envelope{RPCID: 7, Msg: msg}); err == nil {
			f.Add(b)
		}
	}
	for _, b := range hugeCountFrames() {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{255, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := Unmarshal(b)
		if err != nil {
			return // rejected input; all that matters is no panic
		}
		// Accepted messages are canonical: decoded value lengths always
		// match the carried bytes, so a re-encode must succeed and survive
		// a second decode.
		out, err := Marshal(env)
		if err != nil {
			t.Fatalf("re-Marshal of accepted input failed: %v", err)
		}
		env2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-Unmarshal failed: %v", err)
		}
		if env2.Msg.Op() != env.Msg.Op() || env2.RPCID != env.RPCID {
			t.Fatalf("round trip changed identity: op %d/%d id %d/%d",
				env.Msg.Op(), env2.Msg.Op(), env.RPCID, env2.RPCID)
		}
	})
}
