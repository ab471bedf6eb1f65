/**
 * @file
 * ArtifactCache hygiene tests: the directory as the only record
 * (usage across reopen, leftover index files of older layouts as
 * ordinary evictable blobs, no abort on a lying index), size-bounded
 * LRU eviction with hits refreshing the order across instances, and
 * multi-process safety of store/load (N forked writers racing on
 * one key must each read back whole blobs and leave exactly one
 * healthy blob; budgeted writers racing on distinct keys must leave
 * the directory within budget and every survivor whole), and the
 * reclaiming of temp files whose writer died before publishing.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/artifact_cache.hh"
#include "obs/counters.hh"
#include "support/serialize.hh"

namespace splab
{
namespace
{

namespace fs = std::filesystem;

/** Fresh cache directory under the gtest scratch root. */
std::string
freshDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "/splab-cache-" + tag;
    fs::remove_all(dir);
    return dir;
}

std::vector<u8>
patternBytes(std::size_t n, u8 seed)
{
    std::vector<u8> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<u8>(seed + i * 7);
    return v;
}

/** Files on disk, temporaries included so a leaked one shows. */
std::set<std::string>
blobFiles(const std::string &dir, const std::string &prefix = "")
{
    std::set<std::string> names;
    for (const auto &e : fs::directory_iterator(dir)) {
        std::string name = e.path().filename().string();
        if (name.rfind(prefix, 0) == 0)
            names.insert(name);
    }
    return names;
}

u64
counterValue(const std::string &name)
{
    return obs::counter(name).value();
}

/** Wait for @p pid; true when it exited with status 0. */
bool
exitedCleanly(pid_t pid)
{
    int status = 0;
    return waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
}

TEST(CacheDir, PersistsAcrossReopenAndTracksUsage)
{
    std::string dir = freshDir("index-reopen");
    ByteWriter blob;
    blob.putRaw(patternBytes(256, 3).data(), 256);
    {
        ArtifactCache cache(dir);
        cache.store("simpoints", 1, blob);
        cache.store("simpoints", 2, blob);
        ByteWriter small;
        small.putRaw(patternBytes(128, 9).data(), 128);
        cache.store("wholefused", 3, small);
        CacheUsage u = cache.usage();
        EXPECT_EQ(u.artifacts, 3u);
        EXPECT_GE(u.residentBytes, 2 * 256 + 128u);
    }
    // A second cache over the same directory serves lookups and
    // usage from the directory alone.
    ArtifactCache reopened(dir);
    CacheUsage u = reopened.usage();
    EXPECT_EQ(u.artifacts, 3u);
    EXPECT_TRUE(reopened.load("simpoints", 1).hit());
    EXPECT_TRUE(reopened.load("simpoints", 2).hit());
    EXPECT_TRUE(reopened.load("wholefused", 3).hit());
}

TEST(CacheDir, LeftoverIndexFilesAreEvictableBlobs)
{
    std::string dir = freshDir("index-leftover");
    ByteWriter blob;
    blob.putRaw(patternBytes(64, 1).data(), 64);
    ByteWriter other;
    other.putRaw(patternBytes(96, 2).data(), 96);
    {
        ArtifactCache cache(dir);
        cache.store("regions", 7, blob);
        cache.store("wholecache", 8, other);
    }
    // What older layouts left behind: a version-1 index (checksum-
    // valid, with a per-entry shared-reference list and a trailing
    // shared sub-blob table), its lock file, and a stray
    // "shared-<hash>.bin" sub-blob.  None is read; each is an
    // ordinary evictable file and evictToBytes(0) reclaims it.
    const std::string stray = "shared-00000000deadbeef.bin";
    ByteWriter strayBlob;
    strayBlob.putRaw(patternBytes(120, 4).data(), 120);
    ASSERT_TRUE(strayBlob.saveFile(dir + "/" + stray));
    {
        ByteWriter v1;
        v1.put<u64>(0x53504c4142494458ULL); // "SPLABIDX"
        v1.put<u32>(1);
        v1.put<u64>(3);  // stamp
        v1.put<u32>(1);  // one artifact entry ...
        v1.putString("wholecache-0000000000000008.bin");
        v1.put<u64>(24); // size
        v1.put<u64>(1);  // last use
        v1.put<u32>(1);  // ... referencing the stray sub-blob
        v1.putString(stray);
        v1.put<u32>(1);  // shared sub-blob table
        v1.putString(stray);
        v1.put<u64>(128);
        ASSERT_TRUE(v1.saveFile(dir + "/index.bin"));
    }
    std::ofstream(dir + "/index.lock");
    ArtifactCache cache(dir);
    CacheUsage u = cache.usage();
    EXPECT_EQ(u.artifacts, 5u);
    EXPECT_TRUE(cache.load("regions", 7).hit());
    EXPECT_TRUE(cache.load("wholecache", 8).hit());
    EXPECT_EQ(cache.evictToBytes(0).residentBytes, 0u);
    EXPECT_TRUE(blobFiles(dir).empty());
    EXPECT_EQ(cache.usage().artifacts, 0u);
}

TEST(CacheDir, OverstatedIndexDoesNotAbort)
{
    // A checksum-valid version-2 index whose entry count (5)
    // overstates its contents (none): 32 bytes with the checksum.
    // Opening a cache over it, serving hits and evicting everything
    // must all succeed.  Run in a child so an abort fails this test
    // instead of killing the test binary.
    std::string dir = freshDir("index-overstated");
    ByteWriter blob;
    blob.putRaw(patternBytes(200, 6).data(), 200);
    {
        ArtifactCache cache(dir);
        for (u64 k = 1; k <= 3; ++k)
            cache.store("simpoints", k, blob);
    }
    ByteWriter v2;
    v2.put<u64>(0x53504c4142494458ULL); // "SPLABIDX"
    v2.put<u32>(2);
    v2.put<u64>(9); // stamp
    v2.put<u32>(5); // entry count, with no entries following
    ASSERT_TRUE(v2.saveFile(dir + "/index.bin"));
    ASSERT_EQ(fs::file_size(dir + "/index.bin"), 32u);

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ArtifactCache cache(dir);
        for (u64 k = 1; k <= 3; ++k)
            if (!cache.load("simpoints", k).hit())
                _exit(3);
        _exit(cache.evictToBytes(0).residentBytes == 0 ? 0 : 4);
    }
    EXPECT_TRUE(exitedCleanly(pid));
    EXPECT_TRUE(blobFiles(dir).empty());
}

TEST(CacheDir, OrphanedTempFilesAreEvictableBlobs)
{
    // A writer that died between its temp write and its rename
    // leaves "<blob>.tmp.<pid>.<seq>" behind for good.  Name one
    // after a forked child that has exited and been reaped, so no
    // process owns it: evictToBytes(0) must reclaim it.  A temp
    // file owned by a live process (this one) stays untouched.
    std::string dir = freshDir("orphaned-temp");
    ArtifactCache cache(dir);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0)
        _exit(0);
    ASSERT_TRUE(exitedCleanly(pid));
    ByteWriter blob;
    blob.putRaw(patternBytes(100, 3).data(), 100);
    const std::string orphan = "simpoints-00000000000000aa.bin.tmp." +
                               std::to_string(pid) + ".0";
    const std::string live = "simpoints-00000000000000bb.bin.tmp." +
                             std::to_string(getpid()) + ".0";
    ASSERT_TRUE(blob.saveFile(dir + "/" + orphan));
    ASSERT_TRUE(blob.saveFile(dir + "/" + live));

    EXPECT_EQ(cache.usage().artifacts, 1u);
    EXPECT_EQ(cache.evictToBytes(0).residentBytes, 0u);
    EXPECT_EQ(blobFiles(dir), std::set<std::string>{live});
}

TEST(CacheDir, CountersRegisterEagerly)
{
    ArtifactCache cache(freshDir("counters"));
    std::map<std::string, u64> snap = obs::counterSnapshot();
    for (const char *name :
         {"artifact_cache.hits", "artifact_cache.misses",
          "artifact_cache.evictions", "artifact_cache.bytes_evicted",
          "artifact_cache.bytes_read", "artifact_cache.bytes_written"})
        EXPECT_TRUE(snap.count(name)) << name;
}

TEST(CacheEviction, LruRespectsBudgetAndProtectsNewestStore)
{
    std::string dir = freshDir("evict-lru");
    ByteWriter blob;
    blob.putRaw(patternBytes(512, 5).data(), 512);
    u64 perBlobBytes = 0;
    {
        ArtifactCache cache(dir);
        cache.store("whole", 1, blob);
        perBlobBytes = cache.usage().residentBytes;
        cache.store("whole", 2, blob);
        cache.store("whole", 3, blob);
        ASSERT_EQ(cache.usage().artifacts, 3u);
    }
    u64 evictionsBefore = counterValue("artifact_cache.evictions");
    // Budget fits two blobs: storing a third must evict exactly the
    // least-recently-used one, never the blob just stored.
    ArtifactCache bounded(dir, 2 * perBlobBytes + perBlobBytes / 2);
    bounded.store("whole", 4, blob);
    EXPECT_GE(counterValue("artifact_cache.evictions"),
              evictionsBefore + 2);
    CacheUsage u = bounded.usage();
    EXPECT_LE(u.residentBytes, bounded.maxBytes());
    EXPECT_TRUE(bounded.load("whole", 4).hit());
    EXPECT_FALSE(bounded.load("whole", 1).hit());
}

TEST(CacheEviction, HitRefreshesLruOrderAcrossInstances)
{
    std::string dir = freshDir("evict-refresh");
    ByteWriter blob;
    blob.putRaw(patternBytes(512, 8).data(), 512);
    u64 perBlobBytes = 0;
    {
        ArtifactCache cache(dir);
        cache.store("whole", 1, blob);
        perBlobBytes = cache.usage().residentBytes;
        cache.store("whole", 2, blob);
        cache.store("whole", 3, blob);
    }
    // A hit through another instance makes key 1 the most recently
    // used, so the budgeted store of key 4 evicts keys 2 and 3.
    ASSERT_TRUE(ArtifactCache(dir).load("whole", 1).hit());
    ArtifactCache bounded(dir, 2 * perBlobBytes + perBlobBytes / 2);
    bounded.store("whole", 4, blob);
    EXPECT_EQ(bounded.usage().artifacts, 2u);
    EXPECT_TRUE(bounded.load("whole", 1).hit());
    EXPECT_TRUE(bounded.load("whole", 4).hit());
    EXPECT_EQ(bounded.load("whole", 2).status, CacheStatus::Miss);
    EXPECT_EQ(bounded.load("whole", 3).status, CacheStatus::Miss);
}

TEST(CacheStress, ForkedWritersNeverExposeATornBlob)
{
    std::string dir = freshDir("fork-one-key");
    std::vector<u8> payload = patternBytes(64 * 1024, 23);
    ByteWriter blob;
    blob.putRaw(payload.data(), payload.size());

    constexpr int kWriters = 8;
    constexpr int kRounds = 16;
    std::vector<pid_t> kids;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: hammer store() on one key and verify every load
            // is a hit on whole, matching bytes.  A torn read would
            // show as a corrupt outcome or a short blob, never an
            // abort.
            ArtifactCache cache(dir);
            for (int i = 0; i < kRounds; ++i) {
                cache.store("wholefused", 42, blob);
                CacheOutcome got = cache.load("wholefused", 42);
                if (!got.hit())
                    _exit(3);
                if (got->remaining() != payload.size())
                    _exit(4);
                if (got->getRaw(payload.size()) != payload)
                    _exit(5);
            }
            _exit(0);
        }
        kids.push_back(pid);
    }
    for (pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status)) << "writer " << pid
                                       << " died";
        EXPECT_EQ(WEXITSTATUS(status), 0)
            << "writer " << pid << " failed";
    }

    // Exactly one healthy blob, no leftover temp files (blobFiles
    // lists those too), and a sane index (one entry).
    EXPECT_EQ(blobFiles(dir).size(), 1u);
    ArtifactCache after(dir);
    CacheOutcome got = after.load("wholefused", 42);
    ASSERT_TRUE(got.hit());
    ASSERT_EQ(got->remaining(), payload.size());
    EXPECT_EQ(got->getRaw(payload.size()), payload);
    EXPECT_EQ(after.usage().artifacts, 1u);
}

TEST(CacheStress, ForkedBudgetedStoresStayWithinBudget)
{
    std::string dir = freshDir("fork-budget");
    constexpr int kWriters = 6;
    constexpr int kKeysEach = 4;
    auto payload = [](u64 key) { return patternBytes(256, u8(key)); };
    u64 perBlobBytes = 0;
    {
        std::string probeDir = freshDir("fork-budget-probe");
        ArtifactCache probe(probeDir);
        ByteWriter blob;
        blob.putRaw(payload(0).data(), 256);
        probe.store("stress", 0, blob);
        perBlobBytes = probe.usage().residentBytes;
        fs::remove_all(probeDir);
    }
    const u64 budget = 3 * perBlobBytes + perBlobBytes / 2;

    std::vector<pid_t> kids;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: store distinct keys while the others evict.  Its
            // own blob may already be evicted when it reads it back,
            // so a miss is fine; a corrupt or short blob is not.
            ArtifactCache cache(dir, budget);
            for (int i = 0; i < kKeysEach; ++i) {
                u64 key = u64(w * kKeysEach + i);
                ByteWriter blob;
                blob.putRaw(payload(key).data(), 256);
                cache.store("stress", key, blob);
                CacheOutcome got = cache.load("stress", key);
                if (got.status == CacheStatus::Corrupt)
                    _exit(3);
                if (got.hit() && got->getRaw(256) != payload(key))
                    _exit(4);
            }
            _exit(0);
        }
        kids.push_back(pid);
    }
    for (pid_t pid : kids)
        EXPECT_TRUE(exitedCleanly(pid)) << "writer " << pid;

    ArtifactCache after(dir);
    CacheUsage u = after.usage();
    EXPECT_LE(u.residentBytes, budget);
    EXPECT_GE(u.artifacts, 1u);
    u64 survivors = 0;
    for (u64 key = 0; key < u64(kWriters * kKeysEach); ++key) {
        CacheOutcome got = after.load("stress", key);
        EXPECT_NE(got.status, CacheStatus::Corrupt) << key;
        if (!got.hit())
            continue;
        ++survivors;
        ASSERT_EQ(got->remaining(), 256u) << key;
        EXPECT_EQ(got->getRaw(256), payload(key)) << key;
    }
    EXPECT_EQ(survivors, u.artifacts);
    for (const std::string &name : blobFiles(dir))
        EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
}

} // namespace
} // namespace splab
