package paxos

import "repro/internal/wire"

// Wire codecs for the six paxos message bodies. Layout mirrors the struct
// field order; InstanceID, AcceptedVal and SlotVal are shared sub-encodings.
// NACKs have no body of their own — they are the OK=false arm of the two
// response types, so the Promised ballot-jump hint travels in every frame.

func encInst(e *wire.Enc, id InstanceID) {
	e.U8(id.Space)
	e.U64(id.Realm)
	e.I64(id.Slot)
}

func decInst(d *wire.Dec) InstanceID {
	return InstanceID{Space: d.U8(), Realm: d.U64(), Slot: d.I64()}
}

func encAccepted(e *wire.Enc, a AcceptedVal) {
	e.I64(a.Ballot)
	e.Bin(a.Val)
	e.Bool(a.Has)
}

func decAccepted(d *wire.Dec) AcceptedVal {
	return AcceptedVal{Ballot: d.I64(), Val: d.Bin(), Has: d.Bool()}
}

func encSlotVal(e *wire.Enc, s SlotVal) {
	e.I64(s.Slot)
	e.I64(s.Ballot)
	e.Bin(s.Val)
}

func decSlotVal(d *wire.Dec) SlotVal {
	return SlotVal{Slot: d.I64(), Ballot: d.I64(), Val: d.Bin()}
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m PrepareReq) MarshalBinary() ([]byte, error) {
	var e wire.Enc
	encInst(&e, m.Inst)
	e.I64(m.Ballot)
	e.Bool(m.Range)
	return e.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *PrepareReq) UnmarshalBinary(b []byte) error {
	d := wire.NewDec(b)
	m.Inst = decInst(d)
	m.Ballot = d.I64()
	m.Range = d.Bool()
	return d.Close()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m PrepareResp) MarshalBinary() ([]byte, error) {
	var e wire.Enc
	encInst(&e, m.Inst)
	e.I64(m.Ballot)
	e.Bool(m.OK)
	e.I64(m.Promised)
	encAccepted(&e, m.Accepted)
	e.U64(uint64(len(m.Range)))
	for _, s := range m.Range {
		encSlotVal(&e, s)
	}
	e.Bool(m.Decided)
	e.Bin(m.DecVal)
	return e.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *PrepareResp) UnmarshalBinary(b []byte) error {
	d := wire.NewDec(b)
	m.Inst = decInst(d)
	m.Ballot = d.I64()
	m.OK = d.Bool()
	m.Promised = d.I64()
	m.Accepted = decAccepted(d)
	if n := d.Len(3); n > 0 {
		m.Range = make([]SlotVal, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			m.Range = append(m.Range, decSlotVal(d))
		}
	} else {
		m.Range = nil
	}
	m.Decided = d.Bool()
	m.DecVal = d.Bin()
	return d.Close()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m AcceptReq) MarshalBinary() ([]byte, error) {
	var e wire.Enc
	encInst(&e, m.Inst)
	e.I64(m.Ballot)
	e.Bin(m.Val)
	return e.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *AcceptReq) UnmarshalBinary(b []byte) error {
	d := wire.NewDec(b)
	m.Inst = decInst(d)
	m.Ballot = d.I64()
	m.Val = d.Bin()
	return d.Close()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m AcceptResp) MarshalBinary() ([]byte, error) {
	var e wire.Enc
	encInst(&e, m.Inst)
	e.I64(m.Ballot)
	e.Bool(m.OK)
	e.I64(m.Promised)
	e.Bool(m.Decided)
	e.Bin(m.DecVal)
	return e.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *AcceptResp) UnmarshalBinary(b []byte) error {
	d := wire.NewDec(b)
	m.Inst = decInst(d)
	m.Ballot = d.I64()
	m.OK = d.Bool()
	m.Promised = d.I64()
	m.Decided = d.Bool()
	m.DecVal = d.Bin()
	return d.Close()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m DecideMsg) MarshalBinary() ([]byte, error) {
	var e wire.Enc
	encInst(&e, m.Inst)
	e.Bin(m.Val)
	return e.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *DecideMsg) UnmarshalBinary(b []byte) error {
	d := wire.NewDec(b)
	m.Inst = decInst(d)
	m.Val = d.Bin()
	return d.Close()
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m LearnReq) MarshalBinary() ([]byte, error) {
	var e wire.Enc
	encInst(&e, m.Inst)
	return e.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *LearnReq) UnmarshalBinary(b []byte) error {
	d := wire.NewDec(b)
	m.Inst = decInst(d)
	return d.Close()
}

func init() {
	wire.Register(wire.TPaxPrepare, "paxos.PrepareReq", func(b []byte) (any, error) {
		var m PrepareReq
		if err := m.UnmarshalBinary(b); err != nil {
			return nil, err
		}
		return m, nil
	})
	wire.Register(wire.TPaxPrepareResp, "paxos.PrepareResp", func(b []byte) (any, error) {
		var m PrepareResp
		if err := m.UnmarshalBinary(b); err != nil {
			return nil, err
		}
		return m, nil
	})
	wire.Register(wire.TPaxAccept, "paxos.AcceptReq", func(b []byte) (any, error) {
		var m AcceptReq
		if err := m.UnmarshalBinary(b); err != nil {
			return nil, err
		}
		return m, nil
	})
	wire.Register(wire.TPaxAcceptResp, "paxos.AcceptResp", func(b []byte) (any, error) {
		var m AcceptResp
		if err := m.UnmarshalBinary(b); err != nil {
			return nil, err
		}
		return m, nil
	})
	wire.Register(wire.TPaxDecide, "paxos.DecideMsg", func(b []byte) (any, error) {
		var m DecideMsg
		if err := m.UnmarshalBinary(b); err != nil {
			return nil, err
		}
		return m, nil
	})
	wire.Register(wire.TPaxLearn, "paxos.LearnReq", func(b []byte) (any, error) {
		var m LearnReq
		if err := m.UnmarshalBinary(b); err != nil {
			return nil, err
		}
		return m, nil
	})
}
