package core

// KeepSuperseded returns cfg with frontier supersession turned off, so a
// test can compare a run against plain Algorithm 1.
func KeepSuperseded(cfg Config) Config {
	cfg.keepSuperseded = true
	return cfg
}
