package tinbench

import repro.core._
import scala.collection.mutable

/** One engine under test: `key` names its `core.<key>.*` layer metrics. */
final case class EngineCase(key: String, make: () => ProvenanceEngine, expect: Expect)

/** Replays of sequential engines over one locally built stream, on the
  * calling thread. One pass replays every engine once; each replay
  * (`process` over the stream, then `snapshot`) is one operation.
  */
final class EngineWorkload(
    shape: Streams.Shape,
    seed: Long,
    cases: Reference => Seq[EngineCase],
    /** Pairs of engine keys whose decompositions must agree. */
    agree: Seq[(String, String)],
    tracer: Tracer,
) extends Workload {
  private var rs: Array[Interaction] = _
  private var ref: Reference = _
  private var engines: Seq[EngineCase] = _

  def setup(): Unit = {
    rs = Streams.build(shape, seed)
    ref = new Reference(rs)
    engines = cases(ref)
    // Replays still speed up in their second run (JIT). After unchecked
    // warm-up passes, one traced run replayed LRB and MRB 30 % slower in
    // its timed passes than in its last warm-up pass.
    warmUp(2, checked = true)
  }

  private final case class Replay(wallS: Double, cpuS: Double, processCpuS: Double,
                                  snapshotS: Double, alloc: Long, gcS: Double, jitS: Double,
                                  threadAlloc: Long, peak: Long, entries: Int)

  /** Replay `c` over the stream; returns its snapshot and readings. */
  private def replay(c: EngineCase): (Checks.Snapshot, Replay) = {
    System.gc() // every replay starts from the same heap state; untimed
    tracer.span(s"core.${c.key}") {
      val eng = c.make()
      val m0 = Probe.mark()
      val ta0 = Probe.threadAllocBytes()
      tracer.span(s"core.${c.key}.process") {
        var i = 0
        while (i < rs.length) { eng.process(rs(i)); i += 1 }
      }()
      val ta1 = Probe.threadAllocBytes()
      val m1 = Probe.mark()
      val snap = tracer.span(s"core.${c.key}.snapshot")(eng.snapshot())()
      val m2 = Probe.mark()
      snap -> Replay(m0.wallS(m2), m0.cpuS(m2), m0.cpuS(m1), m1.wallS(m2), m0.allocTo(m2),
                     m0.gcS(m2), m0.jitS(m2), ta1 - ta0, eng.memory.peakBytes, snap.size)
    } { case (_, r) => Seq("cpu_s" -> r.cpuS, "alloc_bytes" -> r.alloc.toDouble,
                           "entries" -> r.entries.toDouble) }
  }

  def pass(): PassResult = {
    val failures = new Workload.Failures(checking)
    val snaps = mutable.Map.empty[String, Checks.Snapshot]
    val keep = agree.flatMap { case (a, b) => Seq(a, b) }.toSet
    val replays = engines.map { c =>
      val (snap, r) = replay(c)
      failures.check(c.key)(Checks.snapshot(snap, ref, c.expect))
      if (keep(c.key)) snaps(c.key) = snap
      c.key -> r
    }
    agree.foreach { case (a, b) =>
      failures.check(s"$a=$b")(Checks.samePairs(Checks.byPair(snaps(a)), Checks.byPair(snaps(b))))
    }
    val n = rs.length.toDouble
    val layers = replays.flatMap { case (k, r) =>
      Seq(
        s"core.$k.int_per_s" -> n / r.processCpuS,
        s"core.$k.alloc_bytes_per_int" -> r.threadAlloc / n,
        s"core.$k.snapshot_s" -> r.snapshotS,
        s"core.$k.peak_bytes" -> r.peak.toDouble,
        s"core.$k.entries" -> r.entries.toDouble,
      )
    }
    PassResult(
      wallS = replays.map(_._2.wallS).sum,
      cpuS = replays.map(_._2.cpuS).sum,
      allocBytes = replays.map(_._2.alloc).sum,
      gcS = replays.map(_._2.gcS).sum,
      jitS = replays.map(_._2.jitS).sum,
      interactions = rs.length.toLong * engines.size,
      replayRates = replays.map(r => n / r._2.cpuS),
      peakBytes = replays.map(_._2.peak.toDouble),
      ops = engines.size,
      failed = failures.ops.flatMap(_.split('=')).size,
      layers = layers,
    )
  }
}

object EngineWorkload {
  val engineKeys: Seq[String] = Seq("noprov", "lrb", "mrb", "lifo", "fifo", "lifo_paths",
    "dense", "sparse", "selective", "grouped", "budget", "windowed")

  val layerMetrics: Seq[(String, String)] = engineKeys.flatMap { k =>
    Seq(s"core.$k.int_per_s" -> "int/s", s"core.$k.alloc_bytes_per_int" -> "bytes",
        s"core.$k.snapshot_s" -> "s", s"core.$k.entries" -> "count",
        s"core.$k.peak_bytes" -> "bytes")
  }

  /** ordered-bitcoin: the large-V case where proportional provenance is
    * infeasible; LIFO/FIFO use the per-origin consolidated buffers of the
    * paper's measured implementation.
    */
  def orderedBitcoin(seed: Long, tracer: Tracer): EngineWorkload =
    new EngineWorkload(Streams.bitcoin, seed, _ => Seq(
      EngineCase("noprov", () => new NoProv(), Expect.PerLabel(_ => -1L)),
      EngineCase("lrb", () => new OrderedEngine(Policy.LeastRecentlyBorn), Expect.Exact),
      EngineCase("mrb", () => new OrderedEngine(Policy.MostRecentlyBorn), Expect.Exact),
      EngineCase("lifo", () => new OrderedEngine(Policy.Lifo, consolidate = true), Expect.Exact),
      EngineCase("fifo", () => new OrderedEngine(Policy.Fifo, consolidate = true), Expect.Exact),
      EngineCase("lifo_paths",
                 () => new OrderedEngine(Policy.Lifo, trackPaths = true, consolidate = true),
                 Expect.Exact),
    ), agree = Nil, tracer)

  val SelectiveK = 20
  val Groups = 16
  val BudgetC = 20
  val BudgetF = 0.6
  val Window = 10_000L

  /** relay-flights: small V, many relays; the proportional kernels work
    * and fragments pile up.
    */
  def relayFlights(seed: Long, tracer: Tracer): EngineWorkload = {
    val v = Streams.flights.vertices
    new EngineWorkload(Streams.flights, seed, ref => {
      val tracked = ref.topGenerators(SelectiveK).toSet
      Seq(
        EngineCase("dense", () => new ProportionalDense(v), Expect.Exact),
        EngineCase("sparse", () => new ProportionalSparse(), Expect.Exact),
        EngineCase("selective", () => new SelectiveProvenance(tracked.toSeq.sorted),
                   Expect.PerLabel(o => if (tracked(o)) o else -1L)),
        EngineCase("grouped", () => new GroupedProvenance(Groups, o => (o % Groups).toInt),
                   Expect.PerLabel(_ % Groups)),
        EngineCase("budget", () => new BudgetProvenance(BudgetC, BudgetF), Expect.AlphaFolded),
        EngineCase("windowed", () => new WindowedProvenance(Window), Expect.AlphaFolded),
        EngineCase("lrb", () => new OrderedEngine(Policy.LeastRecentlyBorn), Expect.Exact),
        EngineCase("mrb", () => new OrderedEngine(Policy.MostRecentlyBorn), Expect.Exact),
        EngineCase("lifo_paths",
                   () => new OrderedEngine(Policy.Lifo, trackPaths = true, consolidate = true),
                   Expect.Exact),
      )
    }, agree = Seq("dense" -> "sparse"), tracer)
  }
}
