package overload

// Raw-wire helpers for the shed path and the stats bypass. Both run in the
// transport read loop before any decoding, so they work on bytes: a shed
// costs an ID patch on a pre-encoded header, and the stats exemption is a
// case-insensitive compare against the qname's wire form. The serve package
// asserts (by test) that statsQNameWire matches serve.StatsName — the
// import points the other way, so the bytes live here.

// HeaderLen is the DNS fixed header length — also the full length of a
// shed REFUSED response (header only, no question echoed).
const HeaderLen = 12

// refusedTemplate is the pre-encoded REFUSED response: QR=1, RCODE=5, all
// counts zero. RefusedInto patches the ID and the RD echo.
var refusedTemplate = [HeaderLen]byte{2: 0x80, 3: 0x05}

// RefusedInto writes the REFUSED response for raw query q into dst (which
// must hold HeaderLen bytes) and returns the packet. Only the 2-byte ID is
// taken from the query, plus its RD bit so the header echoes the client's
// flags the way a full responder would. A q shorter than a header is not a
// query and yields nil.
func RefusedInto(dst []byte, q []byte) []byte {
	if len(q) < HeaderLen {
		return nil
	}
	dst = dst[:HeaderLen]
	copy(dst, refusedTemplate[:])
	dst[0], dst[1] = q[0], q[1]
	dst[2] |= q[2] & 0x01 // echo RD
	return dst
}

// statsQNameWire is the wire encoding of the reserved stats qname
// `_stats.resolved.invalid.` (serve.StatsName).
var statsQNameWire = []byte("\x06_stats\x08resolved\x07invalid\x00")

// IsStatsQuery reports whether the raw packet is a TXT query for the stats
// surface: QR=0, QDCOUNT=1, first qname equal to statsQNameWire
// (ASCII-case-insensitively), qtype TXT. It never allocates and tolerates
// trailing bytes (EDNS OPT records), so the read loop can exempt stats
// scrapes before spending anything on them.
func IsStatsQuery(pkt []byte) bool {
	qlen := len(statsQNameWire)
	if len(pkt) < HeaderLen+qlen+4 {
		return false
	}
	if pkt[2]&0x80 != 0 { // QR set: a response, not a query
		return false
	}
	if pkt[4] != 0 || pkt[5] != 1 { // QDCOUNT must be exactly 1
		return false
	}
	name := pkt[HeaderLen:]
	for i, want := range statsQNameWire {
		c := name[i]
		// Lowercase letters only — length octets must compare exactly.
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != want {
			return false
		}
	}
	// qtype TXT (16); class is irrelevant to the exemption.
	return name[qlen] == 0 && name[qlen+1] == 16
}
