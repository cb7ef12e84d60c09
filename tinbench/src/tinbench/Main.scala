package tinbench

import java.nio.file.Paths
import scala.collection.mutable

/** Benchmark entry point, launched by `run.py`:
  *
  * {{{
  * tinbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *               --launched-ms <epoch ms> --work <dir>
  * }}}
  *
  * Sets up the workload, then runs whole passes until `--seconds` have
  * elapsed, and prints one JSON result line: the end-to-end metrics, or
  * with `--trace 1` the per-layer metrics (and a span file in `--work`).
  */
object Main {
  val workloads: Seq[String] = Seq("ordered-bitcoin", "relay-flights", "spark-pipeline", "spark-streaming")

  /** Seconds after launch by which the last timed pass should have ended;
    * `run.py` kills the JVM at 170 s.
    */
  val DeadlineS = 120.0

  /** The per-layer metrics of every workload listed in BENCHMARK.json, in
    * its order; a layer a workload does not exercise reads 0.
    * `spark-streaming`, which is not listed, adds its own stream layers.
    */
  val perLayer: Seq[(String, String)] =
    EngineWorkload.layerMetrics ++ Seq(
      "jvm.gc_s" -> "s", "jvm.jit_s" -> "s",
      "tin.generate_s" -> "s", "tin.to_interactions_s" -> "s",
      "dist.cc_s" -> "s", "dist.cc_jobs" -> "count", "dist.cc_shuffle_bytes" -> "bytes",
      "dist.replay_s" -> "s", "dist.replay_max_task_s" -> "s", "dist.replay_shuffle_bytes" -> "bytes",
    ) ++ SparkWorkloads.queryNames.map(q => s"dist.query.${q}_s" -> "s") ++ Seq(
      "host.steal_s" -> "s",
    )

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val name = opt.getOrElse("workload", "")
    val seed = opt.get("seed").map(_.toLong).getOrElse(1L)
    val seconds = opt.get("seconds").map(_.toDouble).getOrElse(10.0)
    val traced = opt.get("trace").contains("1")
    val launchedMs = opt.get("launched-ms").map(_.toLong).getOrElse(System.currentTimeMillis())
    val work = Paths.get(opt.getOrElse("work", "tinbench/out"))
    if (!workloads.contains(name)) {
      Console.err.println(s"unknown workload '$name'; one of ${workloads.mkString(", ")}")
      sys.exit(2)
    }
    val tracer = new Tracer(traced)
    val w: Workload = name match {
      case "ordered-bitcoin" => EngineWorkload.orderedBitcoin(seed, tracer)
      case "relay-flights"   => EngineWorkload.relayFlights(seed, tracer)
      case "spark-pipeline"  => SparkWorkloads.pipeline(seed, work, traced, tracer)
      case "spark-streaming" => SparkWorkloads.streaming(seed, work, tracer)
    }
    val ok = try {
      w.setup()
      val setupS = (System.currentTimeMillis() - launchedMs) / 1e3
      val steal0 = Probe.stealTicks()
      val passes = mutable.ArrayBuffer.empty[PassResult]
      // A pass with its checks can take several times its timed part; on
      // a slowed host, stop early rather than run past the time limit.
      var lastFullS = 0.0
      def sinceLaunchS = (System.currentTimeMillis() - launchedMs) / 1e3
      while (passes.map(_.wallS).sum < seconds &&
             (passes.isEmpty || sinceLaunchS + 1.5 * lastFullS < DeadlineS)) {
        val t0 = System.nanoTime()
        passes += tracer.span("pass")(w.pass())(p => Seq("wall_s" -> p.wallS, "cpu_s" -> p.cpuS))
        lastFullS = (System.nanoTime() - t0) / 1e9
      }
      val stealS = (Probe.stealTicks() - steal0) / 100.0
      val attempted = passes.map(_.ops).sum
      val failed = passes.map(_.failed).sum
      def med(f: PassResult => Double) = Stats.median(passes.map(f).toSeq)
      val metrics =
        if (!traced) Seq(
          ("setup_s", setupS, "s"),
          ("pass_s", med(_.wallS), "s"),
          ("pass_cpu_s", med(_.cpuS), "s"),
          ("replay_int_per_s", med(p => Stats.geomean(p.replayRates)), "interactions/s"),
          ("peak_state_bytes", med(p => Stats.geomean(p.peakBytes)), "bytes"),
          ("alloc_bytes_per_int", med(p => p.allocBytes.toDouble / p.interactions), "bytes"),
        )
        else {
          val seen = passes.flatMap(_.layers).groupMap(_._1)(_._2)
          val extra = Map("jvm.gc_s" -> med(_.gcS), "jvm.jit_s" -> med(_.jitS), "host.steal_s" -> stealS)
          val names = perLayer ++ (if (name == "spark-streaming") SparkWorkloads.streamLayers else Nil)
          names.map { case (m, unit) =>
            (m, extra.getOrElse(m, seen.get(m).map(xs => Stats.median(xs.toSeq)).getOrElse(0.0)), unit)
          }
        }
      Console.err.println(
        f"[tinbench] $name seed=$seed: ${passes.size} passes, setup ${setupS}%.2f s, " +
          f"steal $stealS%.2f s, passes ${passes.map(p => f"${p.wallS}%.3f").mkString(" ")}")
      tracer.flush(work.resolve(s"trace-$name-$seed.jsonl"))
      println(Json.result(correct = true, attempted, failed, metrics))
      true
    } catch { case e: Throwable =>
      Console.err.println(s"[tinbench] $name seed=$seed failed, no result:")
      e.printStackTrace()
      false
    } finally
      try w.close()
      catch { case e: Exception => Console.err.println(s"[tinbench] close failed: $e") }
    // Exit now: a thread a library left running must not hold the JVM open.
    System.out.flush()
    sys.exit(if (ok) 0 else 1)
  }
}
