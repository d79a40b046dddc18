// Twoserver: run S1 and S2 as separate TCP endpoints, the deployment shape
// of the paper's threat model (two non-colluding servers operated by
// different organizations).
//
// The process plays every party for demonstration purposes, through the
// calls cmd/keygen, cmd/server and cmd/user make: it generates the key
// material and splits it into per-server key files, starts S1 and S2 on
// loopback TCP with one query registered, and has each user upload its
// encrypted vote to both servers. The servers agree on the participants
// and run the full Alg. 5 protocol over their peer link.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/privconsensus/privconsensus/internal/deploy"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/protocol"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const users, classes = 8, 6
	cfg := protocol.DefaultConfig(users)
	cfg.Classes = classes
	cfg.Sigma1, cfg.Sigma2 = 1, 1
	// Seeded for a reproducible demonstration; cmd/keygen reads crypto/rand.
	keys, err := protocol.GenerateKeys(rand.New(rand.NewSource(99)), cfg)
	if err != nil {
		return fmt.Errorf("generate keys: %w", err)
	}
	s1File, s2File, pubFile, err := keystore.Split(cfg, keys)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// S1 listens for users and for S2; S2 listens for users and dials S1.
	// Both register query 0 and return once it has resolved.
	type result struct {
		results []deploy.InstanceResult
		err     error
	}
	s1Ready, s2Ready := make(chan string, 1), make(chan string, 1)
	s1Done, s2Done := make(chan result, 1), make(chan result, 1)
	go func() {
		rep, err := deploy.ServeS1(ctx, []*keystore.S1File{s1File}, deploy.ServeOptions{ServerOptions: deploy.ServerOptions{
			ListenAddr: "127.0.0.1:0", Instances: 1, Ready: s1Ready,
		}})
		if err != nil {
			s1Done <- result{err: err}
			return
		}
		s1Done <- result{results: rep.Results}
	}()
	var s1Addr, s2Addr string
	select {
	case s1Addr = <-s1Ready:
	case r := <-s1Done:
		return fmt.Errorf("S1: %w", r.err)
	}
	fmt.Printf("S1 listening on %s\n", s1Addr)
	go func() {
		rep, err := deploy.ServeS2(ctx, []*keystore.S2File{s2File}, deploy.ServeOptions{ServerOptions: deploy.ServerOptions{
			ListenAddr: "127.0.0.1:0", PeerAddr: s1Addr, Instances: 1, Ready: s2Ready,
		}})
		if err != nil {
			s2Done <- result{err: err}
			return
		}
		s2Done <- result{results: rep.Results}
	}()
	select {
	case s2Addr = <-s2Ready:
	case r := <-s2Done:
		return fmt.Errorf("S2: %w", r.err)
	}
	fmt.Printf("S2 listening on %s, peered with S1\n", s2Addr)

	// Each user encrypts its vote and uploads one half to each server:
	// 7 of 8 vote class 4.
	start := time.Now()
	for u := 0; u < users; u++ {
		vote := make([]float64, classes)
		if u == 3 {
			vote[1] = 1
		} else {
			vote[4] = 1
		}
		if err := deploy.SubmitVotes(ctx, pubFile, deploy.UserOptions{
			User: u, S1Addr: s1Addr, S2Addr: s2Addr, Seed: int64(100 + u),
		}, [][]float64{vote}); err != nil {
			return fmt.Errorf("user %d: %w", u, err)
		}
	}

	var outcomes []protocol.Outcome
	for _, side := range []struct {
		role string
		done chan result
	}{{"S1", s1Done}, {"S2", s2Done}} {
		r := <-side.done
		if r.err == nil && (len(r.results) != 1 || r.results[0].Err != nil) {
			r.err = fmt.Errorf("query 0 did not complete: %+v", r.results)
		}
		if r.err != nil {
			return fmt.Errorf("%s: %w", side.role, r.err)
		}
		out := r.results[0].Outcome
		fmt.Printf("%s outcome: consensus=%v label=%d (%d participants)\n", side.role, out.Consensus, out.Label, out.Participants)
		outcomes = append(outcomes, out)
	}
	fmt.Printf("query resolved %v after the first upload\n", time.Since(start).Round(time.Millisecond))
	if outcomes[0] != outcomes[1] {
		return fmt.Errorf("servers disagree")
	}
	fmt.Println("both servers agree; neither ever saw an individual vote.")
	return nil
}
