package packet

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// LinkTypeDot11 is the pcap link-layer header type for IEEE 802.11
// without radiotap.
const LinkTypeDot11 uint32 = 105

// PcapWriter emits the classic libpcap file format (magic 0xa1b2c3d4,
// microsecond timestamps) so captures from the simulated sniffers can be
// opened in Wireshark/tcpdump. Only stdlib encoding is used.
type PcapWriter struct {
	w        io.Writer
	snaplen  uint32
	linkType uint32
	wroteHdr bool
}

// NewPcapWriter creates a writer for the given link type.
func NewPcapWriter(w io.Writer, linkType uint32) *PcapWriter {
	return &PcapWriter{w: w, snaplen: 65535, linkType: linkType}
}

func (pw *PcapWriter) writeHeader() error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], 0xa1b2c3d4)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // minor
	// thiszone, sigfigs zero
	binary.LittleEndian.PutUint32(hdr[16:20], pw.snaplen)
	binary.LittleEndian.PutUint32(hdr[20:24], pw.linkType)
	_, err := pw.w.Write(hdr)
	return err
}

// WritePacket appends one record with the given virtual capture time.
func (pw *PcapWriter) WritePacket(ts time.Duration, data []byte) error {
	if !pw.wroteHdr {
		if err := pw.writeHeader(); err != nil {
			return err
		}
		pw.wroteHdr = true
	}
	if len(data) > int(pw.snaplen) {
		data = data[:pw.snaplen]
	}
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(ts/time.Second))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(ts%time.Second/time.Microsecond))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(data)))
	if _, err := pw.w.Write(rec); err != nil {
		return err
	}
	if _, err := pw.w.Write(data); err != nil {
		return err
	}
	return nil
}

// PcapRecord is one packet read back from a pcap stream.
type PcapRecord struct {
	Timestamp time.Duration
	Data      []byte
}

// ReadPcap parses a classic pcap stream written by PcapWriter (or any
// little-endian microsecond pcap) and returns the link type and records.
func ReadPcap(r io.Reader) (uint32, []PcapRecord, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, fmt.Errorf("pcap: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != 0xa1b2c3d4 {
		return 0, nil, fmt.Errorf("pcap: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:4]))
	}
	linkType := binary.LittleEndian.Uint32(hdr[20:24])
	var recs []PcapRecord
	rec := make([]byte, 16)
	for {
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF {
				return linkType, recs, nil
			}
			return linkType, recs, fmt.Errorf("pcap: reading record header: %w", err)
		}
		sec := binary.LittleEndian.Uint32(rec[0:4])
		usec := binary.LittleEndian.Uint32(rec[4:8])
		caplen := binary.LittleEndian.Uint32(rec[8:12])
		data := make([]byte, caplen)
		if _, err := io.ReadFull(r, data); err != nil {
			return linkType, recs, fmt.Errorf("pcap: reading record body: %w", err)
		}
		recs = append(recs, PcapRecord{
			Timestamp: time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond,
			Data:      data,
		})
	}
}
