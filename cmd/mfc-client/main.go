// Command mfc-client is the remote MFC agent (Figure 2(b)): it registers
// with a coordinator over UDP and then executes probe / measure / fire /
// poll commands, issuing real HTTP requests at the target the coordinator
// names.
//
// Usage:
//
//	mfc-client -coordinator coord.example:7420 [-id pl001]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"mfc/internal/liveplat"
)

func main() {
	var (
		coord = flag.String("coordinator", "", "coordinator UDP address host:port (required)")
		id    = flag.String("id", "", "client identifier (default: hostname-pid)")
	)
	flag.Parse()
	if *coord == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "agent"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	agent, err := liveplat.NewAgent(*id, *coord)
	if err != nil {
		log.Fatalf("mfc-client: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("mfc-client %s serving commands from %s", *id, *coord)
	if err := agent.Run(ctx); err != nil {
		log.Fatalf("mfc-client: %v", err)
	}
}
