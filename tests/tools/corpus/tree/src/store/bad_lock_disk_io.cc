// Corpus: P2P008 must fire on each file call that can block on a disk
// (read, write, fsync, fdatasync, rename, std::rename, and opening a
// std::ofstream) while a scoped lock from common/sync.h is held.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/sync.h"

namespace {
p2prange::Mutex g_mu;
p2prange::SharedMutex g_data_mu;
std::string g_image;
}  // namespace

void ReadUnderLock(int fd, char* buf) {
  p2prange::MutexLock lock(&g_mu);
  (void)::read(fd, buf, 1);  // line 20: read while g_mu is held
}

void WriteUnderLock(int fd) {
  p2prange::WriterMutexLock lock(&g_data_mu);
  (void)::write(fd, g_image.data(), g_image.size());  // line 25: write
}

void FsyncUnderLock(int fd) {
  p2prange::WriterMutexLock lock(&g_data_mu);
  (void)::fsync(fd);  // line 30: fsync under the data lock
}

void FdatasyncUnderLock(int fd) {
  p2prange::MutexLock lock(&g_mu);
  (void)::fdatasync(fd);  // line 35: fdatasync while g_mu is held
}

void RenameUnderLock(const char* from, const char* to) {
  p2prange::MutexLock lock(&g_mu);
  (void)::rename(from, to);  // line 40: rename while g_mu is held
}

void StdRenameUnderLock(const char* from, const char* to) {
  p2prange::ReaderMutexLock lock(&g_data_mu);
  (void)std::rename(from, to);  // line 45: std::rename under a reader lock
}

void OpenUnderLock(const std::string& path) {
  p2prange::ReaderMutexLock lock(&g_data_mu);
  std::ofstream out(path, std::ios::binary);  // line 50: opens the file
  out << g_image;
}

void CopyThenSave(const std::string& path) {
  // The sanctioned shape: copy under the lock, touch the disk outside.
  std::string copy;
  {
    p2prange::ReaderMutexLock lock(&g_data_mu);
    copy = g_image;
  }
  std::ofstream out(path, std::ios::binary);  // lock released: not flagged
  out << copy;
}
