// bskycrawl runs the paper's measurement pipeline against a live
// deployment (e.g. one started with bskysim) and prints the collected
// dataset summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"blueskies/internal/crawl"
)

func main() {
	relayURL := flag.String("relay", "", "relay base URL (required)")
	plcURL := flag.String("plc", "", "PLC directory base URL")
	appviewURL := flag.String("appview", "", "AppView base URL")
	flag.Parse()
	if *relayURL == "" {
		log.Fatal("-relay is required")
	}

	col := &crawl.Collector{RelayURL: *relayURL, PLCURL: *plcURL, AppViewURL: *appviewURL}
	ctx := context.Background()

	ids, err := col.ListIdentifiers(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("identifier dataset: %d repositories\n", len(ids))

	ds, err := col.Snapshot(ctx, time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repository dataset: %d users, %d posts\n", len(ds.Users), len(ds.Posts))
	var posts, likes, follows int
	for _, u := range ds.Users {
		posts += u.Posts
		likes += u.Likes
		follows += u.Following
	}
	fmt.Printf("accumulated operations: %d posts, %d likes, %d follows\n", posts, likes, follows)
	fmt.Printf("labeling dataset: %d label interactions\n", len(ds.Labels))
}
