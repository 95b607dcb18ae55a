package logstore

import "ramcloud/internal/hashtable"

// A master indexes its log with a hashtable.Table of packed refs keyed by
// key hash. The table stores no keys, so every probe checks a candidate's
// key against its log entry; the helpers below are that check, shared by
// both masters.

// KeyEq returns the hash-table equality callback that matches the
// candidate whose log entry holds exactly (table, key).
func (l *Log) KeyEq(table uint64, key []byte) hashtable.EqualFunc {
	return func(packed uint64) bool {
		e, err := l.Get(UnpackRef(packed))
		return err == nil && e.Table == table && string(e.Key) == string(key)
	}
}

// Lookup finds (table, key) in the index ht and returns the log entry it
// maps to, with that entry's ref. The entry is fetched from the log once:
// the probe that matches it keeps it.
func (l *Log) Lookup(ht *hashtable.Table, table, keyHash uint64, key []byte) (*Entry, Ref, bool) {
	var hit *Entry
	var hitRef Ref
	_, ok := ht.Lookup(keyHash, func(packed uint64) bool {
		ref := UnpackRef(packed)
		e, err := l.Get(ref)
		if err != nil || e.Table != table || string(e.Key) != string(key) {
			return false
		}
		hit, hitRef = e, ref
		return true
	})
	return hit, hitRef, ok
}
