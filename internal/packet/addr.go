package packet

import "fmt"

// MACAddr is a 48-bit IEEE 802 MAC address.
type MACAddr [6]byte

// String implements fmt.Stringer.
func (a MACAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// IsBroadcast reports whether the address is ff:ff:ff:ff:ff:ff.
func (a MACAddr) IsBroadcast() bool {
	return a == MACAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
}

// BroadcastMAC is the all-ones MAC address.
var BroadcastMAC = MACAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// MAC builds a locally administered address from a small integer,
// convenient for assigning testbed node addresses.
func MAC(n uint32) MACAddr {
	return MACAddr{0x02, 0x00, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
}

// IPv4Addr is an IPv4 address.
type IPv4Addr [4]byte

// String implements fmt.Stringer.
func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IP builds an address from four octets.
func IP(a, b, c, d byte) IPv4Addr { return IPv4Addr{a, b, c, d} }
