package main

import (
	"os"
	"syscall"
	"unsafe"
)

// ioctl requests and the inode flag behind chattr +T (linux/fs.h).
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopdirFlag  = 0x00020000
)

// spreadChildren marks dir as the top of a directory hierarchy (chattr +T),
// so ext4 places each directory made directly under it in a block group of
// its own choosing instead of next to its parent.
//
// Without it the harness slows the program it measures. Every workload run
// deletes the tens of thousands of job directories serve made. ext4 will not
// hand out an inode again within five minutes of its deletion while the
// inode table block is still dirty in memory, and it skips such inodes one
// at a time: every mkdir and create in the same block group then pays for
// all the runs of the last five minutes. Measured on the reference box,
// echo_durable fell from 770 to 490 runs/s over six back-to-back runs; with
// the flag six runs stayed within 790–830.
//
// The flag is an ext2/3/4 attribute. On a file system without it the ioctl
// fails and nothing is lost but steadiness, so errors are ignored.
func spreadChildren(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags uint64 // the kernel reads and writes the low 32 bits
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); errno != 0 {
		return
	}
	if flags&fsTopdirFlag != 0 {
		return
	}
	flags |= fsTopdirFlag
	_, _, _ = syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}
