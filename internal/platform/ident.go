package platform

// The ident domain: the participant directory — ID allocation, display
// names and resume tokens. ident.mu is locked only in this file, never on
// the hot path (it reads connState.names).

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
)

// identState guards the participant directory: ID allocation, names, and
// resume credentials.
type identState struct {
	mu     sync.Mutex
	nextID int
	names  map[int]string
	tokens map[int]uint64 // participant → resume credential
}

// newToken mints an unguessable resume credential. Identity resumption is
// authenticated by this token, not by the (small, guessable) participant
// ID, so a malicious client cannot hijack another participant's identity
// and accrued credit.
func newToken() uint64 {
	var b [8]byte
	crand.Read(b[:]) // never fails; panics on broken platforms
	tok := binary.LittleEndian.Uint64(b[:])
	if tok == 0 {
		tok = 1 // 0 means "no token" on the wire
	}
	return tok
}

// register mints a new identity, or — with Resume set and a valid token —
// re-attaches an existing one to this connection. Either way it binds the
// participant to this connection (bind): a resumed participant's in-flight
// assignments stay its own, are re-issued here, and are not reclaimed when
// the old connection's goroutine notices the drop.
func (s *Supervisor) register(m Message, cs *connState) Message {
	id, name := m.ParticipantID, m.Name
	var tok uint64
	if m.Resume {
		s.ident.mu.Lock()
		tok, name = s.ident.tokens[id], s.ident.names[id]
		s.ident.mu.Unlock()
		if tok == 0 || m.Token != tok { // no token is minted as 0: the ID is unknown
			return Message{Type: MsgError, Reason: ReasonResumeRefused,
				Error: "unknown participant or bad token"}
		}
		held, ok := s.bind(id, cs)
		if !ok {
			return Message{Type: MsgError, Reason: ReasonBlacklisted,
				Error: "participant is blacklisted"}
		}
		s.metrics.workersResumed.Inc()
		if s.events != nil {
			s.events.Emit(EvWorkerResumed, map[string]any{
				"participant": id, "name": name, "inflight": held,
			})
		}
		s.logf("participant %d (%s) resumed with %d in-flight assignment(s)", id, name, held)
	} else {
		tok = newToken()
		s.ident.mu.Lock()
		id = s.ident.nextID
		s.ident.nextID++
		s.ident.names[id] = name
		s.ident.tokens[id] = tok
		s.ident.mu.Unlock()
		s.bind(id, cs)
		s.metrics.workersRegistered.Inc()
		if s.events != nil {
			s.events.Emit(EvWorkerJoined, map[string]any{"participant": id, "name": name})
		}
		s.logf("registered participant %d (%s)", id, name)
	}
	cs.names[id] = name
	return Message{Type: MsgRegistered, ParticipantID: id, Token: tok, Proto: negotiateProto(m.Proto)}
}

// negotiateProto maps a register request's proto capability to the codec
// the supervisor will speak after the registered reply. Only proto=bin is
// recognized; anything else — absent, "json", or a capability from the
// future — keeps the connection on newline-delimited JSON, so old and new
// peers interoperate in both directions.
func negotiateProto(requested string) string {
	if requested == ProtoBinary {
		return ProtoBinary
	}
	return ""
}

// participantCount reports how many participant IDs have been allocated,
// journaled ones included.
func (s *Supervisor) participantCount() int {
	s.ident.mu.Lock()
	defer s.ident.mu.Unlock()
	return s.ident.nextID
}

// creditName is the name a participant's credit is merged under across
// shards: its registered name, or participant-<id> when it has none.
func (s *Supervisor) creditName(pid int) string {
	s.ident.mu.Lock()
	name := s.ident.names[pid]
	s.ident.mu.Unlock()
	if name == "" {
		name = fmt.Sprintf("participant-%d", pid)
	}
	return name
}
