//go:build !linux

package main

// pinner pins nothing off Linux; see pin_linux.go.
type pinner struct{}

func newPinner() *pinner    { return nil }
func (p *pinner) pin(int)   {}
func (p *pinner) release()  {}
func (p *pinner) size() int { return 1 }
