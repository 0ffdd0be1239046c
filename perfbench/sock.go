package main

import (
	"errors"
	"fmt"
	"net/netip"
	"syscall"
	"time"
)

// sock is a non-blocking UDP socket, connected to the server and driven by
// raw system calls, so a lane can sleep until its next due time with
// select(2)'s microsecond timeout instead of the runtime poller's
// millisecond timer granularity, which would add up to a millisecond of
// driver lateness to every query.
type sock struct {
	fd   int
	port int
}

// openSock binds a UDP socket to 127.0.0.1:port (0 picks a port) and
// connects it to server.
func openSock(port int, server netip.AddrPort) (*sock, error) {
	if !server.Addr().Is4() {
		return nil, fmt.Errorf("server %s: only IPv4 is supported", server)
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	// Room for a storm's worth of replies while the lane is sending.
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<20)
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 4<<20)
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Port: port, Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		_ = syscall.Close(fd)
		return nil, fmt.Errorf("bind 127.0.0.1:%d: %w", port, err)
	}
	if err := syscall.Connect(fd, &syscall.SockaddrInet4{Port: int(server.Port()), Addr: server.Addr().As4()}); err != nil {
		_ = syscall.Close(fd)
		return nil, fmt.Errorf("connect %s: %w", server, err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		_ = syscall.Close(fd)
		return nil, err
	}
	return &sock{fd: fd, port: sa.(*syscall.SockaddrInet4).Port}, nil
}

func (s *sock) close() { _ = syscall.Close(s.fd) }

// send writes one datagram, waiting for buffer space if the kernel has
// none.
func (s *sock) send(b []byte) error {
	for {
		_, err := syscall.Write(s.fd, b)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, syscall.EINTR), errors.Is(err, syscall.ECONNREFUSED):
			// ECONNREFUSED reports an earlier datagram that found no
			// listener (the server is still starting); this one may not.
			continue
		case errors.Is(err, syscall.EAGAIN):
			if err := s.wait(time.Millisecond, true); err != nil {
				return err
			}
		default:
			return err
		}
	}
}

// recv reads one queued datagram; ok is false when none is queued. An
// earlier datagram that found no listener is reported as ECONNREFUSED.
func (s *sock) recv(b []byte) (n int, ok bool, err error) {
	for {
		n, err := syscall.Read(s.fd, b)
		switch {
		case err == nil:
			return n, true, nil
		case errors.Is(err, syscall.EINTR):
			continue
		case errors.Is(err, syscall.EAGAIN):
			return 0, false, nil
		default:
			return 0, false, err
		}
	}
}

// wait blocks until the socket is readable (or, with write set, writable)
// or d has passed.
func (s *sock) wait(d time.Duration, write bool) error {
	var set syscall.FdSet
	set.Bits[s.fd/64] |= 1 << (uint(s.fd) % 64)
	tv := syscall.NsecToTimeval(int64(max(d, 0)))
	var err error
	if write {
		_, err = syscall.Select(s.fd+1, nil, &set, nil, &tv)
	} else {
		_, err = syscall.Select(s.fd+1, &set, nil, nil, &tv)
	}
	if errors.Is(err, syscall.EINTR) {
		return nil
	}
	return err
}
