// Command dropper carries the one finding of the driver's test module: an
// error result dropped in a package under pcpda/cmd/, which errcheck covers.
package main

import "os"

func main() {
	os.Remove("out.txt")
}
