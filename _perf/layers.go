package main

import (
	"sort"
	"time"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/obs"
)

// layerProbe holds what the per-layer metrics of a traced repetition
// are measured against: the file systems and disks, and their counters
// when the measured phase began.
type layerProbe struct {
	fss    []*core.FS
	disks  []*disk.Disk
	before []core.StatsSnapshot
}

func startLayers(fss []*core.FS, disks []*disk.Disk) *layerProbe {
	lp := &layerProbe{fss: fss, disks: disks}
	for _, fs := range fss {
		lp.before = append(lp.before, fs.StatsSnapshot())
	}
	return lp
}

// callOps are the file-system calls the benchmark wraps in spans.
var callOps = []string{"create", "write", "read", "remove", "fsync", "sync"}

// busyCauses are the disk causes whose share of busy time is reported.
var busyCauses = []disk.IOCause{
	disk.CauseLogAppend, disk.CauseCleanerRead, disk.CauseCleanerWrite,
	disk.CauseCheckpoint, disk.CauseInodeMap, disk.CauseReadMiss,
}

// finish computes the per-layer metrics of the measured phase that
// just ended. Ratios whose base is zero on a workload report 0.
func (lp *layerProbe) finish(r *rep, tr *tracer) map[string]float64 {
	out := map[string]float64{}
	var log core.Stats
	var dk disk.Stats
	var hits, misses, evictions int64
	var dirtyBytes, liveBytes int64
	var perShard []float64
	for i, fs := range lp.fss {
		a, b := lp.before[i], fs.StatsSnapshot()
		log.SegmentsSealed += b.Log.SegmentsSealed - a.Log.SegmentsSealed
		log.Checkpoints += b.Log.Checkpoints - a.Log.Checkpoints
		log.SegmentsCleaned += b.Log.SegmentsCleaned - a.Log.SegmentsCleaned
		log.CleanerBlocksExamined += b.Log.CleanerBlocksExamined - a.Log.CleanerBlocksExamined
		log.CleanerLiveCopied += b.Log.CleanerLiveCopied - a.Log.CleanerLiveCopied
		log.GroupCommits += b.Log.GroupCommits - a.Log.GroupCommits
		log.PiggybackedSyncs += b.Log.PiggybackedSyncs - a.Log.PiggybackedSyncs
		perShard = append(perShard, float64(b.Log.UserBytesWritten-a.Log.UserBytesWritten))
		hits += b.Cache.Hits - a.Cache.Hits
		misses += b.Cache.Misses - a.Cache.Misses
		evictions += b.Cache.Evictions - a.Cache.Evictions
		segs := fs.LogCapacity() / int64(b.SegmentSize)
		dirtyBytes += (segs - int64(b.CleanSegments)) * int64(b.SegmentSize)
		liveBytes += b.LiveBytes
		dk = addDisk(dk, lp.disks[i].Stats().Sub(a.Disk))
	}
	ops := float64(r.ops)
	busy := float64(dk.BusyTime)
	share := func(causes ...disk.IOCause) float64 {
		var b float64
		for _, c := range causes {
			b += float64(dk.ByCause[c].Busy)
		}
		return ratio(b, busy)
	}
	const mb = 1 << 20

	out["cache.hit_rate"] = ratio(float64(hits), float64(hits+misses))
	out["cache.evictions"] = float64(evictions)

	out["core.cleaner.segments_cleaned"] = float64(log.SegmentsCleaned)
	out["core.cleaner.live_frac"] = ratio(float64(log.CleanerLiveCopied), float64(log.CleanerBlocksExamined))
	out["core.cleaner.read_mb"] = float64(dk.ByCause[disk.CauseCleanerRead].Sectors*disk.SectorSize) / mb
	out["core.cleaner.busy_share"] = share(disk.CauseCleanerRead, disk.CauseCleanerWrite)
	out["core.cleaner.space_amp"] = ratio(float64(dirtyBytes), float64(liveBytes))

	calls := callStats(tr)
	out["core.log.group_commits"] = float64(log.GroupCommits)
	out["core.log.segments_sealed"] = float64(log.SegmentsSealed)
	out["core.checkpoint.count"] = float64(log.Checkpoints)
	out["core.checkpoint.busy_share"] = share(disk.CauseCheckpoint)
	for k, v := range calls {
		out[k] = v
	}
	out["core.log.piggyback_frac"] = ratio(float64(log.PiggybackedSyncs), calls["core.fsync.count"])

	out["disk.write_kb_per_req"] = ratio(float64(dk.SectorsWritten*disk.SectorSize)/1024, float64(dk.Writes))
	out["disk.busy_frac"] = ratio(busy, float64(len(lp.disks))*float64(r.simElapsed))
	out["disk.seeks_per_op"] = float64(dk.Seeks) / ops
	out["disk.reads_per_read_op"] = ratio(float64(dk.ByCause[disk.CauseReadMiss].Requests+dk.ByCause[disk.CauseInodeMap].Requests), float64(r.reads))
	for _, c := range busyCauses {
		out["disk.busy_share."+c.String()] = share(c)
	}
	var wait, events float64
	for _, ev := range tr.rec.Events() {
		wait += float64(ev.Wait)
		events++
	}
	out["disk.queue_wait_ms_mean"] = ratio(wait, events) / 1e6

	var storeWall time.Duration
	var storeCalls, storeBytes float64
	for _, s := range tr.spans {
		if s.name == "store.read" || s.name == "store.write" {
			storeWall += time.Duration(s.end - s.start)
			storeCalls++
			storeBytes += float64(s.bytes)
		}
	}
	out["disk.store.wall_frac"] = ratio(float64(storeWall), float64(r.wall))
	out["disk.store.calls"] = storeCalls
	out["disk.store.mb_written"] = storeBytes / mb

	out["sched.events_per_op"] = float64(r.events) / ops
	out["shard.ops_imbalance"] = imbalance(perShard)

	var total float64
	var phase [obs.NumPhaseKinds]float64
	for _, o := range tr.rec.Aggregates().Ops {
		total += float64(o.Total)
		for k, d := range o.Phase {
			phase[k] += float64(d)
		}
	}
	for k := obs.PhaseKind(0); k < obs.NumPhaseKinds; k++ {
		out["obs.phase."+k.String()+".share"] = ratio(phase[k], total)
	}
	return out
}

// callStats summarises the spans around each file-system call.
func callStats(tr *tracer) map[string]float64 {
	wall := map[string][]float64{}
	simd := map[string][]float64{}
	fails := map[string]float64{}
	for _, s := range tr.spans {
		wall[s.name] = append(wall[s.name], float64(s.end-s.start)/1e3)
		simd[s.name] = append(simd[s.name], float64(s.simEnd.Sub(s.simStart))/1e6)
		if s.failed {
			fails[s.name]++
		}
	}
	out := map[string]float64{}
	for _, op := range callOps {
		name := "core." + op
		w, s := wall[name], simd[name]
		sort.Float64s(w)
		sort.Float64s(s)
		out[name+".count"] = float64(len(w))
		out[name+".fail"] = fails[name]
		out[name+".wall_p50_us"] = quantile(w, 0.5)
		out[name+".wall_p99_us"] = quantile(w, 0.99)
		out[name+".sim_p50_ms"] = quantile(s, 0.5)
		out[name+".sim_p99_ms"] = quantile(s, 0.99)
	}
	return out
}

// imbalance returns the largest value over the mean, 1 for one value.
func imbalance(v []float64) float64 {
	var sum, top float64
	for _, x := range v {
		sum += x
		top = max(top, x)
	}
	return ratio(top*float64(len(v)), sum)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addDisk sums the disk counters the metrics use.
func addDisk(a, b disk.Stats) disk.Stats {
	a.Writes += b.Writes
	a.SectorsWritten += b.SectorsWritten
	a.Seeks += b.Seeks
	a.BusyTime += b.BusyTime
	for c := range a.ByCause {
		a.ByCause[c].Requests += b.ByCause[c].Requests
		a.ByCause[c].Sectors += b.ByCause[c].Sectors
		a.ByCause[c].Busy += b.ByCause[c].Busy
	}
	return a
}
