package live

import (
	"bufio"
	"fmt"
	"net"
	"sync"
)

// Servers is the live measurement target: a TCP listener answering HTTP
// GETs (and serving as a connect-probe target) plus a UDP echo socket,
// both on the same port number where possible.
type Servers struct {
	tcp net.Listener
	udp *net.UDPConn

	mu sync.Mutex
	wg sync.WaitGroup

	// Stats
	httpRequests int
	udpEchoes    int
	conns        int
}

// StartServers binds servers on the given address ("127.0.0.1:0" picks a
// free port).
func StartServers(addr string) (*Servers, error) {
	l, err := net.Listen("tcp4", addr)
	if err != nil {
		return nil, fmt.Errorf("live: tcp listen: %w", err)
	}
	uaddr, err := net.ResolveUDPAddr("udp4", l.Addr().String())
	if err != nil {
		l.Close()
		return nil, err
	}
	u, err := net.ListenUDP("udp4", uaddr)
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("live: udp listen: %w", err)
	}
	s := &Servers{tcp: l, udp: u}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.echoLoop()
	return s, nil
}

// Addr returns the servers' address ("host:port").
func (s *Servers) Addr() string { return s.tcp.Addr().String() }

// Close shuts both servers down.
func (s *Servers) Close() {
	s.tcp.Close()
	s.udp.Close()
	s.wg.Wait()
}

// Stats returns (http requests, udp echoes, tcp connections) served.
func (s *Servers) Stats() (int, int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.httpRequests, s.udpEchoes, s.conns
}

func (s *Servers) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns++
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveHTTP(conn)
		}()
	}
}

// serveHTTP answers minimal keep-alive GETs.
func (s *Servers) serveHTTP(conn net.Conn) {
	defer conn.Close()
	rd := bufio.NewReader(conn)
	for {
		// Read one request (headers only; GETs carry no body).
		sawGet := false
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				return
			}
			if len(line) >= 3 && line[:3] == "GET" {
				sawGet = true
			}
			if line == "\r\n" || line == "\n" {
				break
			}
		}
		if !sawGet {
			return
		}
		s.mu.Lock()
		s.httpRequests++
		s.mu.Unlock()
		body := "ok\n"
		resp := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n%s", len(body), body)
		if _, err := conn.Write([]byte(resp)); err != nil {
			return
		}
	}
}

func (s *Servers) echoLoop() {
	defer s.wg.Done()
	buf := make([]byte, 2048)
	for {
		n, raddr, err := s.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.udpEchoes++
		s.mu.Unlock()
		s.udp.WriteToUDP(buf[:n], raddr)
	}
}
