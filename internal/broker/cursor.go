package broker

// Sweep cursors. A rack stamps every bottle it racks with a rising arrival
// stamp (stamp, in shard.go) and draws a random epoch when it opens. A
// sweeper's position on the rack is the pair: a sweep returns only
// the passing bottles stamped after the query's cursor and answers with the
// cursor to send next, so each passing bottle is returned once per rack
// epoch and the rack keeps nothing per sweeper. A fan-out (client.Ring)
// holds no cursors either: the query carries one per member, named by the
// member, and the fan-out hands each member its own.

// SweepCursor is a sweeper's position on one rack.
type SweepCursor struct {
	// Member names the rack as the backend the query goes to knows it: ""
	// is that backend's own rack; a ring names each member ("rack-0"), and a
	// member that is itself a ring adds its own member's name after a slash
	// ("rack-0/inner").
	Member string
	// Epoch is the rack's, drawn at random when it opened (never zero); a
	// cursor of another epoch is stale, and the rack screens from zero.
	Epoch uint64
	// After is the arrival stamp up to which the sweeper has been handed
	// every passing bottle.
	After uint64
}

// MemberCursors appends to dst the cursors of a query addressed to one
// member of a fan-out, named as the member knows them: its own as "", those
// of a member of its own under the rest of their name.
func MemberCursors(dst, cursors []SweepCursor, member string) []SweepCursor {
	for _, c := range cursors {
		switch n := len(member); {
		case c.Member == member:
			c.Member = ""
		case len(c.Member) > n && c.Member[n] == '/' && c.Member[:n] == member:
			c.Member = c.Member[n+1:]
		default:
			continue
		}
		dst = append(dst, c)
	}
	return dst
}

// AppendMemberAnswer appends to dst the cursors one member of a fan-out
// answered with, named as the fan-out's caller knows them.
func AppendMemberAnswer(dst, answer []SweepCursor, member string) []SweepCursor {
	for _, c := range answer {
		if c.Member == "" {
			c.Member = member
		} else {
			c.Member = member + "/" + c.Member
		}
		dst = append(dst, c)
	}
	return dst
}

// MergeCursors moves a sweeper's cursors to a sweep's answer: each rack that
// answered gets its new cursor, and the others keep theirs.
func MergeCursors(held, answer []SweepCursor) []SweepCursor {
next:
	for _, c := range answer {
		for i := range held {
			if held[i].Member == c.Member {
				held[i] = c
				continue next
			}
		}
		held = append(held, c)
	}
	return held
}

// sweepFrom resolves where a query's sweep starts on this rack: after its
// cursor when the cursor is of this epoch and not ahead of high, the rack's
// last stamp as the sweep began; from zero otherwise. A cursor of another epoch
// (a restart, another rack) is counted.
func (r *Rack) sweepFrom(cursors []SweepCursor, high uint64) uint64 {
	for _, c := range cursors {
		if c.Member != "" {
			continue
		}
		if c.Epoch == r.epoch && c.After <= high {
			return c.After
		}
		r.cursorResets.Add(1)
		return 0
	}
	return 0
}
