// Package pdes is a fixture stub standing in for mobickpt's
// internal/pdes parallel engine, for lanelint fixtures.
package pdes

import "des"

type Core struct{}

func (c *Core) Schedule(emitter, owner int, at des.Time, fn des.ArgHandler, arg any, write bool) {}

func (c *Core) Now(owner int) des.Time { return 0 }
