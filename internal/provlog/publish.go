package provlog

import "os"

// atomicPublish writes a file and publishes it under finalPath with the
// crash-safe protocol every durable artifact in this package uses:
// CreateTemp → write → fsync file → close → rename → fsync dir. A crash
// at any point leaves either the old file or the new one, never a partial
// or empty file under the real name. The temp file is removed on any
// failure.
//
// This is the only function allowed to call os.Rename — the renamesync
// analyzer (see docs/ANALYZERS.md) holds every other publication site to
// routing through here.
//
//bugdoc:publish
func atomicPublish(dir, tmpPattern, finalPath string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), finalPath); err != nil {
		return err
	}
	return syncDir(dir)
}
