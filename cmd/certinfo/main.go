// Command certinfo inspects certificates like `openssl x509 -text` and lints
// them with the full registry battery (severity, linter version and detail
// per finding). It reads PEM or raw DER from files or stdin.
//
// Usage:
//
//	certinfo [-lint] [-lint-config certlint.json] [-der] file.pem [file2.pem ...]
//	servesim ... | certinfo -fetch host:port
//	certinfo -corpus corpus.v3 -fp <hex-sha256> [-lint]
//
// -corpus pulls a single certificate out of a v3 snapshot by fingerprint via
// the point-lookup read path (internal/querystore) — no corpus decode, so it
// answers in milliseconds even against a multi-gigabyte snapshot.
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"securepki/internal/certlint"
	"securepki/internal/querystore"
	"securepki/internal/wire"
	"securepki/internal/x509lite"
)

func main() {
	var (
		lint     = flag.Bool("lint", false, "run the registry linters on each certificate")
		lintConf = flag.String("lint-config", "", "certlint.json suppression/scoping config for -lint")
		der      = flag.Bool("der", false, "input is raw DER, not PEM")
		fetch    = flag.String("fetch", "", "fetch the chain from a host:port (wire protocol) instead of reading files")
		corpus   = flag.String("corpus", "", "look the certificate up in this v3 snapshot instead of reading files")
		fpHex    = flag.String("fp", "", "with -corpus: hex SHA-256 fingerprint of the certificate to fetch")
	)
	flag.Parse()

	var lintCfg *certlint.Config
	if *lintConf != "" {
		cfg, err := certlint.LoadConfig(*lintConf)
		if err != nil {
			fatal(err)
		}
		lintCfg = cfg
	}

	var certs []*x509lite.Certificate
	switch {
	case *corpus != "":
		if *fpHex == "" {
			fatal(fmt.Errorf("-corpus needs -fp <hex-sha256>"))
		}
		cert, err := lookupCorpus(*corpus, *fpHex)
		if err != nil {
			fatal(err)
		}
		certs = append(certs, cert)
	case *fetch != "":
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		chain, err := wire.FetchChain(ctx, *fetch)
		if err != nil {
			fatal(err)
		}
		for i, raw := range chain {
			cert, err := x509lite.Parse(raw)
			if err != nil {
				fatal(fmt.Errorf("chain element %d: %w", i, err))
			}
			certs = append(certs, cert)
		}
	case flag.NArg() == 0:
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		certs = load(data, *der)
	default:
		for _, path := range flag.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				fatal(err)
			}
			certs = append(certs, load(data, *der)...)
		}
	}

	for i, cert := range certs {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(cert.Text())
		if *lint {
			findings := certlint.Default().RunCert(cert, nil, lintCfg)
			if len(findings) == 0 {
				fmt.Println("    Lint: clean")
			}
			for _, f := range findings {
				fmt.Printf("    Lint: %s\n", f)
			}
		}
	}
}

// lookupCorpus opens the v3 snapshot read-only and fetches one certificate
// by fingerprint through the point-lookup index.
func lookupCorpus(path, fpHex string) (*x509lite.Certificate, error) {
	raw, err := hex.DecodeString(fpHex)
	var fp x509lite.Fingerprint
	if err != nil || len(raw) != len(fp) {
		return nil, fmt.Errorf("-fp: want %d hex chars", 2*len(fp))
	}
	copy(fp[:], raw)
	st, err := querystore.Open(path, querystore.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	cert, ok, err := st.ByFingerprint(fp)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%s: no certificate %s", path, fpHex)
	}
	return cert, nil
}

func load(data []byte, rawDER bool) []*x509lite.Certificate {
	if rawDER {
		cert, err := x509lite.Parse(data)
		if err != nil {
			fatal(err)
		}
		return []*x509lite.Certificate{cert}
	}
	certs, err := x509lite.ParsePEM(data)
	if err != nil {
		fatal(err)
	}
	return certs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "certinfo:", err)
	os.Exit(1)
}
