// Command portfolio runs a declarative JSON hosting scenario (see
// internal/scenario for the schema): a set of services with policies,
// mechanisms, market lists, lifetimes and optional revenue models, over
// synthetic or replayed prices.
//
// Usage:
//
//	portfolio -scenario study.json
//	portfolio -example > study.json   # print a starter document
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"spothost/internal/scenario"
)

const exampleDoc = `{
  "seed": 42,
  "days": 30,
  "services": [
    {
      "name": "shop",
      "region": "us-east-1a", "type": "medium",
      "policy": "proactive", "mechanism": "ckpt-lr-live",
      "revenue": {"requests_per_second": 40, "revenue_per_request": 0.001,
                  "degraded_loss_factor": 0.3}
    },
    {
      "name": "api",
      "region": "us-west-1a", "type": "small",
      "policy": "reactive", "mechanism": "ckpt-lr"
    },
    {
      "name": "batch",
      "region": "us-east-1b", "type": "large",
      "policy": "pure-spot", "mechanism": "ckpt-lr"
    },
    {
      "name": "surge",
      "region": "us-east-1a", "type": "small",
      "policy": "proactive", "vms": 4,
      "markets": ["us-east-1a/small", "us-east-1a/medium",
                  "us-east-1a/large", "us-east-1a/xlarge"],
      "start_hour": 240, "stop_hour": 480
    }
  ]
}
`

func main() {
	path := flag.String("scenario", "", "scenario JSON file")
	example := flag.Bool("example", false, "print an example scenario and exit")
	flag.Parse()

	if *example {
		fmt.Print(exampleDoc)
		return
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "usage: portfolio -scenario study.json (or -example)")
		os.Exit(2)
	}
	f, err := os.Open(*path)
	if err != nil {
		fatal(err)
	}
	sc, err := scenario.Load(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	res, err := sc.RunCtx(context.Background(), nil)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Render())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
