package repro.bench

import repro.core._
import repro.tin.TinGen

/** Builders for the paper's evaluation tables (6–10) plus the Fig. 5–9
  * shape checks, shared by the `bench/` ScalaTest suites and the
  * spark-submit jobs. Every builder returns a markdown table that prints
  * the paper's number next to ours (see EXPERIMENTS.md for the recorded
  * diff and the scale caveats).
  */
object Tables {

  /** Datasets of the Tables 7–10 runs, materialised once per JVM. */
  lazy val streams: Map[String, Array[Interaction]] =
    TinGen.all.map(p => p.name -> TinGen.local(p)).toMap

  private def profile(name: String) = TinGen.byName(name)

  // ------------------------------------------------------------------
  // Table 6 — dataset characteristics
  // ------------------------------------------------------------------

  def table6(): String = {
    val rows = TinGen.all.map { p =>
      val rs = streams(p.name)
      val nodes = rs.iterator.flatMap(r => Iterator(r.s, r.d)).toSet.size
      val avgQ = rs.iterator.map(_.q).sum / rs.length
      Seq(
        p.name,
        s"${p.paperVertices} → $nodes",
        s"${p.paperInteractions} → ${rs.length}",
        f"${p.paperAvgQ} → $avgQ%.2f",
      )
    }
    "### Table 6 — dataset characteristics (paper → ours, lite scale)\n" +
      Harness.markdownTable(Seq("dataset", "#nodes", "#interactions", "avg r.q"), rows)
  }

  // ------------------------------------------------------------------
  // Tables 7/8 — runtime and peak memory per policy
  // ------------------------------------------------------------------

  /** Paper's Table 7 runtimes (sec), for side-by-side printing. */
  val paperTable7: Map[(String, String), String] = Map(
    ("bitcoin", "NoProv") -> "0.19", ("bitcoin", "LRB") -> "31.77",
    ("bitcoin", "MRB") -> "9.17", ("bitcoin", "LIFO") -> "3.10",
    ("bitcoin", "FIFO") -> "3.90", ("bitcoin", "PropDense") -> "—",
    ("bitcoin", "PropSparse") -> "—",
    ("ctu", "NoProv") -> "0.010", ("ctu", "LRB") -> "0.16",
    ("ctu", "MRB") -> "0.19", ("ctu", "LIFO") -> "0.08",
    ("ctu", "FIFO") -> "0.11", ("ctu", "PropDense") -> "—",
    ("ctu", "PropSparse") -> "—",
    ("prosper", "NoProv") -> "0.006", ("prosper", "LRB") -> "0.089",
    ("prosper", "MRB") -> "0.082", ("prosper", "LIFO") -> "0.055",
    ("prosper", "FIFO") -> "0.08", ("prosper", "PropDense") -> "—",
    ("prosper", "PropSparse") -> "15.7",
    ("flights", "NoProv") -> "0.009", ("flights", "LRB") -> "0.75",
    ("flights", "MRB") -> "0.77", ("flights", "LIFO") -> "0.077",
    ("flights", "FIFO") -> "0.15", ("flights", "PropDense") -> "1.58",
    ("flights", "PropSparse") -> "2.91",
    ("taxis", "NoProv") -> "0.0005", ("taxis", "LRB") -> "0.014",
    ("taxis", "MRB") -> "0.015", ("taxis", "LIFO") -> "0.002",
    ("taxis", "FIFO") -> "0.004", ("taxis", "PropDense") -> "0.032",
    ("taxis", "PropSparse") -> "0.05",
  )

  /** Paper's Table 8 peak memory, for side-by-side printing. */
  val paperTable8: Map[(String, String), String] = Map(
    ("bitcoin", "NoProv") -> "96MB", ("bitcoin", "LRB") -> "891MB",
    ("bitcoin", "MRB") -> "892MB", ("bitcoin", "LIFO") -> "536MB",
    ("bitcoin", "FIFO") -> "535MB", ("bitcoin", "PropDense") -> "—",
    ("bitcoin", "PropSparse") -> "—",
    ("ctu", "NoProv") -> "4.85MB", ("ctu", "LRB") -> "56.4MB",
    ("ctu", "MRB") -> "56.4MB", ("ctu", "LIFO") -> "33.8MB",
    ("ctu", "FIFO") -> "33.8MB", ("ctu", "PropDense") -> "—",
    ("ctu", "PropSparse") -> "—",
    ("prosper", "NoProv") -> "800KB", ("prosper", "LRB") -> "61.4MB",
    ("prosper", "MRB") -> "61.4MB", ("prosper", "LIFO") -> "36.8MB",
    ("prosper", "FIFO") -> "36.8MB", ("prosper", "PropDense") -> "—",
    ("prosper", "PropSparse") -> "2.4GB",
    ("flights", "NoProv") -> "5KB", ("flights", "LRB") -> "0.90MB",
    ("flights", "MRB") -> "1.05MB", ("flights", "LIFO") -> "1.05MB",
    ("flights", "FIFO") -> "1.05MB", ("flights", "PropDense") -> "3.16MB",
    ("flights", "PropSparse") -> "2.32MB",
    ("taxis", "NoProv") -> "2KB", ("taxis", "LRB") -> "0.93MB",
    ("taxis", "MRB") -> "1.02MB", ("taxis", "LIFO") -> "0.59MB",
    ("taxis", "FIFO") -> "0.6MB", ("taxis", "PropDense") -> "0.52MB",
    ("taxis", "PropSparse") -> "0.44MB",
  )

  /** Timed runs per Tables 7/8 cell. */
  val Table78Runs = 3

  /** Every (dataset × policy) cell: the run of median time out of
    * [[Table78Runs]], or the first run alone where it blew a budget;
    * memoised per JVM.
    */
  lazy val table78Results: Map[(String, String), Harness.RunResult] = {
    for {
      p <- TinGen.all
      col <- Harness.PolicyColumns
    } yield {
      def run() = Harness.runPolicy(col, streams(p.name), p.vertices,
                                    budgetBytes = MemoryModel.DefaultBudgetBytes,
                                    maxSeconds = 120.0)
      val first = run()
      val res =
        if (first.status != "ok") first
        else (first +: Seq.fill(Table78Runs - 1)(run())).sortBy(_.timeSec).apply(Table78Runs / 2)
      (p.name, col) -> res
    }
  }.toMap

  def table7(): String = {
    val rows = TinGen.all.map { p =>
      p.name +: Harness.PolicyColumns.map { c =>
        s"${paperTable7((p.name, c))} → ${table78Results((p.name, c)).timeCell}"
      }
    }
    "### Table 7 — runtime sec (paper → ours; '—' = infeasible)\n" +
      Harness.markdownTable("dataset" +: Harness.PolicyColumns, rows)
  }

  def table8(): String = {
    val rows = TinGen.all.map { p =>
      p.name +: Harness.PolicyColumns.map { c =>
        s"${paperTable8((p.name, c))} → ${table78Results((p.name, c)).memCell}"
      }
    }
    "### Table 8 — peak memory (paper → ours; '—' = infeasible)\n" +
      Harness.markdownTable("dataset" +: Harness.PolicyColumns, rows)
  }

  // ------------------------------------------------------------------
  // Table 9 — budget-based shrinking statistics
  // ------------------------------------------------------------------

  /** Paper's Table 9 (avg shrinks, % vertices) per (dataset, C). */
  val paperTable9: Map[(String, Int), (Double, Double)] = Map(
    ("bitcoin", 10) -> (1.94, 18.38), ("bitcoin", 50) -> (1.51, 14.79),
    ("bitcoin", 100) -> (1.43, 14.21),
    ("ctu", 10) -> (7.27, 31.07), ("ctu", 50) -> (5.1, 28.68),
    ("ctu", 100) -> (4.77, 27.94), ("ctu", 200) -> (4.53, 26.6),
    ("ctu", 500) -> (4.34, 25.24), ("ctu", 1000) -> (4.3, 25.02),
    ("prosper", 10) -> (20.67, 94.7), ("prosper", 50) -> (4.77, 79.29),
    ("prosper", 100) -> (2.97, 69.09), ("prosper", 200) -> (2.1, 59.16),
    ("prosper", 500) -> (1.5, 47.64), ("prosper", 1000) -> (1.23, 41.39),
  )

  /** C values per dataset, mirroring the paper (Bitcoin stops at 100). */
  val table9Cs: Map[String, Seq[Int]] = Map(
    "bitcoin" -> Seq(10, 50, 100),
    "ctu" -> Seq(10, 50, 100, 200, 500, 1000),
    "prosper" -> Seq(10, 50, 100, 200, 500, 1000),
  )

  private val table9Cache =
    scala.collection.mutable.Map.empty[(String, Int), BudgetProvenance]

  def runTable9(dataset: String, c: Int): BudgetProvenance = synchronized {
    table9Cache.getOrElseUpdate((dataset, c), {
      val e = new BudgetProvenance(capacity = c, keepFraction = 0.6)
      e.processAll(streams(dataset))
      e
    })
  }

  def table9(): String = {
    val rows = for {
      c <- Seq(10, 50, 100, 200, 500, 1000)
    } yield {
      c.toString +: Seq("bitcoin", "ctu", "prosper").flatMap { d =>
        if (!table9Cs(d).contains(c)) Seq("—", "—")
        else {
          val e = runTable9(d, c)
          val (pAvg, pPct) = paperTable9((d, c))
          Seq(f"$pAvg%.2f → ${e.avgShrinks}%.2f", f"$pPct%.2f → ${e.pctVerticesShrunk}%.2f")
        }
      }
    }
    "### Table 9 — budget-based shrinking statistics (paper → ours)\n" +
      Harness.markdownTable(
        Seq("C", "bitcoin avg.shrinks", "bitcoin %vertices", "ctu avg.shrinks",
            "ctu %vertices", "prosper avg.shrinks", "prosper %vertices"),
        rows,
      )
  }

  // ------------------------------------------------------------------
  // Table 10 — path tracking in LIFO
  // ------------------------------------------------------------------

  /** Paper Table 10: (time s, mem entries MB, mem paths MB, total MB, avg len). */
  val paperTable10: Map[String, (Double, Double, Double, Double, Double)] = Map(
    "bitcoin" -> (13.35, 534.62, 847.50, 1382.13, 4.75),
    "ctu" -> (0.36, 33.87, 7.16, 41.03, 0.63),
    "prosper" -> (0.4, 36.85, 0.74, 37.59, 0.06),
    "flights" -> (0.17, 0.627, 57.09, 57.72, 273.17),
    "taxis" -> (0.008, 0.58, 1.09, 1.68, 5.55),
  )

  private val table10Cache =
    scala.collection.mutable.Map.empty[String, (Harness.RunResult, OrderedEngine)]

  def runTable10(dataset: String): (Harness.RunResult, OrderedEngine) = synchronized {
    table10Cache.getOrElseUpdate(dataset, {
      val e = new OrderedEngine(Policy.Lifo, trackPaths = true,
                                budgetBytes = 4L * MemoryModel.DefaultBudgetBytes,
                                consolidate = true)
      val r = Harness.drive(e, streams(dataset), maxSeconds = 120.0)
      (r, e)
    })
  }

  def table10(): String = {
    val mb = 1024.0 * 1024.0
    val rows = TinGen.all.map { p =>
      val (r, e) = runTable10(p.name)
      val (pt, pe, pp, ptot, plen) = paperTable10(p.name)
      if (r.status != "ok")
        Seq(p.name, f"$pt%.2f → — (${r.status})", s"$pe → —", s"$pp → —", s"$ptot → —",
            s"$plen → —")
      else
        Seq(
          p.name,
          f"$pt%.2f → ${r.timeSec}%.3f",
          f"$pe%.2f → ${e.peakEntryBytes / mb}%.2f",
          f"$pp%.2f → ${e.peakPathBytes / mb}%.2f",
          f"$ptot%.2f → ${(e.peakEntryBytes + e.peakPathBytes) / mb}%.2f",
          f"$plen%.2f → ${e.avgPathLength}%.2f",
        )
    }
    "### Table 10 — path tracking in LIFO (paper → ours)\n" +
      Harness.markdownTable(
        Seq("dataset", "time (s)", "mem entries (MB)", "mem paths (MB)",
            "total mem (MB)", "avg path length"),
        rows,
      )
  }

  // ------------------------------------------------------------------
  // Figure analogs (5–8) and the use case (Fig. 9)
  // ------------------------------------------------------------------

  /** Fig. 5 analog: selective / grouped proportional sweeps over k. */
  def scalingSweep(dataset: String, ks: Seq[Int]): String = {
    val rs = streams(dataset)
    val p = profile(dataset)
    val rows = ks.map { k =>
      val gen = new NoProv(); gen.processAll(rs)
      val tracked = gen.topGenerators(k)
      val sel = new SelectiveProvenance(tracked)
      val t0 = System.nanoTime(); sel.processAll(rs)
      val selT = (System.nanoTime() - t0) / 1e9
      val grp = new GroupedProvenance(k, v => (v % k).toInt)
      val t1 = System.nanoTime(); grp.processAll(rs)
      val grpT = (System.nanoTime() - t1) / 1e9
      Seq(k.toString, f"$selT%.3f", Harness.fmtBytes(sel.memory.peakBytes),
          f"$grpT%.3f", Harness.fmtBytes(grp.memory.peakBytes))
    }
    s"### Fig. 5 analog — selective/grouped proportional on $dataset\n" +
      Harness.markdownTable(
        Seq("k", "selective time (s)", "selective mem", "grouped time (s)", "grouped mem"),
        rows,
      )
  }

  /** Fig. 7 analog: windowing sweep over W. */
  def windowSweep(dataset: String, ws: Seq[Long]): String = {
    val rs = streams(dataset)
    val rows = ws.map { w =>
      val e = new WindowedProvenance(w, budgetBytes = 4L * MemoryModel.DefaultBudgetBytes)
      val r = Harness.drive(e, rs, maxSeconds = 120.0)
      Seq(w.toString,
          if (r.status == "ok") f"${r.timeSec}%.3f" else s"— (${r.status})",
          if (r.status == "ok") Harness.fmtBytes(r.peakBytes) else "—")
    }
    s"### Fig. 7 analog — windowed proportional on $dataset\n" +
      Harness.markdownTable(Seq("W", "time (s)", "peak mem"), rows)
  }

  /** Fig. 9 analog: smurfing alerts over the first `n` interactions of a
    * dataset under sparse proportional provenance.
    */
  def useCase(dataset: String, n: Int, threshold: Double): String = {
    val rs = streams(dataset).take(n)
    val alerts = AlertUseCase.run(rs, threshold,
                                  budgetBytes = 4L * MemoryModel.DefaultBudgetBytes)
    val few = alerts.count(_.fewSources)
    s"### Fig. 9 analog — provenance alerts on $dataset (first $n interactions, " +
      s"threshold $threshold)\n" +
      Harness.markdownTable(
        Seq("alerts", "few-source (<5 origins, red)", "many-source (blue)"),
        Seq(Seq(alerts.size.toString, few.toString, (alerts.size - few).toString)),
      )
  }
}
