package puncture

// KeyHash is the one string-key hash of the consumer: it picks this
// store's model and chipset stripes, and in ingest both a cell's fold
// pipe and its store stripe. It is FNV-1a over the key's fields, each
// followed by a zero separator byte so adjacent fields cannot alias,
// finished by murmur3's fmix64 avalanche step. Build one with
// NewKeyHash, chain AddString and AddUint64 over the fields, and take
// Sum64. Every step is a value method, so hashing allocates nothing
// (hash/fnv's hasher would be a heap allocation per call).
//
// Callers take Sum64() % n, so the finalizer is what spreads keys. Bit
// 0 of an FNV-1a state is only the parity of the low bits of every
// input byte, because the prime is odd: a key that repeats a field, as
// an ingest cell does when its group defaults to its device, cancels
// that field's parity, and without fmix64 every such key of one
// scenario and window lands on one pipe of two and on even stripes
// only. fmix64 makes each output bit depend on every input bit. It
// takes no seed, unlike hash/maphash, so a key set splits the same way
// in every process and every run.
type KeyHash uint64

const (
	fnvOffset64 KeyHash = 14695981039346656037
	fnvPrime64  KeyHash = 1099511628211
)

// NewKeyHash starts a hash: the FNV-1a offset basis.
func NewKeyHash() KeyHash { return fnvOffset64 }

// AddString extends h over s and a zero separator byte.
func (h KeyHash) AddString(s string) KeyHash {
	for i := 0; i < len(s); i++ {
		h ^= KeyHash(s[i])
		h *= fnvPrime64
	}
	return h * fnvPrime64 // separator (xor with 0 is a no-op)
}

// AddUint64 extends h over v's eight bytes, least significant first.
func (h KeyHash) AddUint64(v uint64) KeyHash {
	for i := 0; i < 8; i++ {
		h ^= KeyHash(v >> (8 * i) & 0xff)
		h *= fnvPrime64
	}
	return h
}

// Sum64 finishes h with fmix64.
func (h KeyHash) Sum64() uint64 {
	x := uint64(h)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
