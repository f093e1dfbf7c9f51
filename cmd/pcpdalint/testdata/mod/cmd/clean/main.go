// Command clean has nothing for any analyzer to report.
package main

import (
	"fmt"
	"os"
)

func main() {
	if err := os.Remove("out.txt"); err != nil {
		fmt.Println(err)
	}
}
