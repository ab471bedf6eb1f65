/**
 * @file
 * ArtifactCache hygiene tests: the persistent index (incremental
 * maintenance, reopen without a scan, rebuild from a corrupt,
 * missing or older-version index), size-bounded LRU eviction, and
 * the multi-process torn-blob safety of store/load (N forked writers
 * racing on one key must each read back whole blobs and leave
 * exactly one healthy blob).
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

/** Blob files on disk (index bookkeeping excluded). */
std::set<std::string>
blobFiles(const std::string &dir, const std::string &prefix = "")
{
    std::set<std::string> names;
    for (const auto &e : fs::directory_iterator(dir)) {
        std::string name = e.path().filename().string();
        if (name.rfind("index.", 0) == 0)
            continue;
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

TEST(CacheIndex, PersistsAcrossReopenAndTracksUsage)
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
    // usage from the persisted index alone.
    ArtifactCache reopened(dir);
    CacheUsage u = reopened.usage();
    EXPECT_EQ(u.artifacts, 3u);
    EXPECT_TRUE(reopened.load("simpoints", 1).hit());
    EXPECT_TRUE(reopened.load("simpoints", 2).hit());
    EXPECT_TRUE(reopened.load("wholefused", 3).hit());
}

TEST(CacheIndex, RebuildsFromCorruptOrMissingIndex)
{
    std::string dir = freshDir("index-rebuild");
    ByteWriter blob;
    blob.putRaw(patternBytes(64, 1).data(), 64);
    ByteWriter other;
    other.putRaw(patternBytes(96, 2).data(), 96);
    {
        ArtifactCache cache(dir);
        cache.store("regions", 7, blob);
        cache.store("wholecache", 8, other);
    }
    // Corrupt the index: the next open must fall back to a directory
    // scan and still see both blobs.
    {
        std::ofstream out(dir + "/index.bin",
                          std::ios::binary | std::ios::trunc);
        out << "not an index";
    }
    {
        ArtifactCache cache(dir);
        CacheUsage u = cache.usage();
        EXPECT_EQ(u.artifacts, 2u);
        EXPECT_TRUE(cache.load("regions", 7).hit());
        EXPECT_TRUE(cache.load("wholecache", 8).hit());
    }
    // Same story with the index deleted outright.
    fs::remove(dir + "/index.bin");
    {
        ArtifactCache cache(dir);
        EXPECT_EQ(cache.usage().artifacts, 2u);
        EXPECT_TRUE(cache.load("regions", 7).hit());
    }

    // And with a version-1 index, as written before blob sharing was
    // removed: checksum-valid, with a per-entry shared-reference list
    // and a trailing shared sub-blob table, next to a stray
    // "shared-<hash>.bin" sub-blob file.  Opening it must rebuild the
    // index from a scan, so the stray file is indexed as an ordinary
    // evictable blob and evictToBytes(0) reclaims it.
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
    ArtifactCache cache(dir);
    CacheUsage u = cache.usage();
    EXPECT_EQ(u.artifacts, 3u);
    EXPECT_TRUE(cache.load("regions", 7).hit());
    EXPECT_TRUE(cache.load("wholecache", 8).hit());
    EXPECT_EQ(cache.evictToBytes(0).residentBytes, 0u);
    EXPECT_TRUE(blobFiles(dir).empty());
    EXPECT_EQ(cache.usage().artifacts, 0u);
}

TEST(CacheIndex, CountersRegisterEagerly)
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

TEST(CacheStress, ForkedStoresKeepIndexConsistent)
{
    std::string dir = freshDir("fork-index");
    constexpr int kWriters = 6;
    std::vector<pid_t> kids;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ArtifactCache cache(dir);
            ByteWriter blob;
            std::vector<u8> bytes = patternBytes(256, u8(40 + w));
            blob.putRaw(bytes.data(), bytes.size());
            cache.store("stress", u64(w), blob);
            _exit(cache.load("stress", u64(w)).hit() ? 0 : 5);
        }
        kids.push_back(pid);
    }
    for (pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    // Every writer's entry survived the concurrent flock'd
    // read-modify-write cycles on the index.
    ArtifactCache after(dir);
    EXPECT_EQ(after.usage().artifacts, u64(kWriters));
    for (int w = 0; w < kWriters; ++w)
        EXPECT_TRUE(after.load("stress", u64(w)).hit()) << w;
}

} // namespace
} // namespace splab
