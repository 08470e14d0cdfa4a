package branch

import "pinnedloads/internal/ckptio"

// SaveState serializes the TAGE base table, tagged tables and history.
func (t *TAGE) SaveState(e *ckptio.Encoder) {
	e.U64(uint64(len(t.base)))
	for _, c := range t.base {
		e.U8(uint8(c))
	}
	e.U64(uint64(len(t.tables)))
	for i := range t.tables {
		tt := &t.tables[i]
		e.U64(uint64(len(tt.entries)))
		for j := range tt.entries {
			en := &tt.entries[j]
			e.U16(en.tag)
			e.I64(int64(en.ctr))
			e.U8(en.useful)
			e.Bool(en.valid)
		}
	}
	e.U64(t.history)
}

// LoadState restores a TAGE predictor of the same geometry.
func (t *TAGE) LoadState(d *ckptio.Decoder) {
	n := d.U64()
	if d.Err() != nil {
		return
	}
	if n != uint64(len(t.base)) {
		d.Failf("TAGE base has %d counters, checkpoint has %d", len(t.base), n)
		return
	}
	for i := range t.base {
		t.base[i] = counter(d.U8())
	}
	nt := d.U64()
	if d.Err() != nil {
		return
	}
	if nt != uint64(len(t.tables)) {
		d.Failf("TAGE has %d tables, checkpoint has %d", len(t.tables), nt)
		return
	}
	for i := range t.tables {
		tt := &t.tables[i]
		ne := d.U64()
		if d.Err() != nil {
			return
		}
		if ne != uint64(len(tt.entries)) {
			d.Failf("TAGE table %d has %d entries, checkpoint has %d", i, len(tt.entries), ne)
			return
		}
		for j := range tt.entries {
			en := &tt.entries[j]
			en.tag = d.U16()
			en.ctr = int8(d.I64())
			en.useful = d.U8()
			en.valid = d.Bool()
		}
	}
	t.history = d.U64()
}
