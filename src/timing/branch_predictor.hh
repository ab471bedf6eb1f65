/**
 * @file
 * Branch direction predictors: gshare and an Alpha 21264-style
 * tournament (bimodal + gshare + per-branch chooser).
 *
 * The timing model uses the tournament: the bimodal component
 * captures per-branch bias even when global history is uninformative
 * (irregular control flow), while the gshare component captures
 * history-correlated patterns; the chooser learns which to trust
 * per branch.
 */

#ifndef SPLAB_TIMING_BRANCH_PREDICTOR_HH
#define SPLAB_TIMING_BRANCH_PREDICTOR_HH

#include <vector>

#include "support/types.hh"

namespace splab
{

/** Accepted global-history lengths of both predictors. */
constexpr u32 kMinHistoryBits = 4;
constexpr u32 kMaxHistoryBits = 24;

/**
 * Global-history XOR-indexed table of 2-bit saturating counters.
 */
class GsharePredictor
{
  public:
    /** @param historyBits table is 2^historyBits counters. */
    explicit GsharePredictor(u32 historyBits);

    /** Predict direction for the branch at @p pc. */
    bool predict(Addr pc) const;

    /**
     * Update with the resolved outcome.
     * @return true when the earlier prediction was correct.
     */
    bool update(Addr pc, bool taken);

    /** Reset to the cold (weakly-not-taken, empty history) state. */
    void reset();

    u64 lookups() const { return nLookups; }
    u64 mispredicts() const { return nMispredicts; }

    /** Freeze counters during warm-up (state still trains). */
    void setWarmup(bool on) { warming = on; }

    void
    resetStats()
    {
        nLookups = 0;
        nMispredicts = 0;
    }

  private:
    u64
    index(Addr pc) const
    {
        return ((pc >> 2) ^ history) & mask;
    }

    std::vector<u8> table; ///< 2-bit counters, 0..3
    u64 history = 0;
    u64 mask;
    u64 nLookups = 0;
    u64 nMispredicts = 0;
    bool warming = false;
};

/**
 * Tournament predictor: per-branch bimodal and gshare components
 * arbitrated by a per-branch chooser.  Cold state prefers bimodal,
 * which trains within two executions of a biased branch.
 */
class TournamentPredictor
{
  public:
    /** @param historyBits each table is 2^historyBits counters. */
    explicit TournamentPredictor(u32 historyBits);

    /** Predict direction for the branch at @p pc. */
    bool predict(Addr pc) const;

    /**
     * Update all components with the resolved outcome.
     * @return true when the earlier prediction was correct.
     */
    bool update(Addr pc, bool taken);

    /** Reset to the cold state (weakly not-taken, prefer bimodal). */
    void reset();

    u64 lookups() const { return nLookups; }
    u64 mispredicts() const { return nMispredicts; }

    void setWarmup(bool on) { warming = on; }

    void
    resetStats()
    {
        nLookups = 0;
        nMispredicts = 0;
    }

  private:
    u64
    pcIndex(Addr pc) const
    {
        return (pc >> 2) & mask;
    }

    u64
    gIndex(Addr pc) const
    {
        return ((pc >> 2) ^ history) & mask;
    }

    static void
    train(u8 &counter, bool taken)
    {
        if (taken && counter < 3)
            ++counter;
        else if (!taken && counter > 0)
            --counter;
    }

    std::vector<u8> bimodal;
    std::vector<u8> gshare;
    std::vector<u8> chooser; ///< >= 2 selects gshare
    u64 history = 0;
    u64 mask;
    u64 nLookups = 0;
    u64 nMispredicts = 0;
    bool warming = false;
};

} // namespace splab

#endif // SPLAB_TIMING_BRANCH_PREDICTOR_HH
