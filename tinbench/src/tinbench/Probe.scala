package tinbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Process-level readings taken around calls into the program. */
object Probe {
  private val osBean =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threadBean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector
  private val taskDir = Paths.get("/proc/self/task")

  /** CPU time of every live thread of this process, in ns, from
    * `/proc/self/task/<tid>/schedstat`: ns resolution, steal excluded.
    * Empty where that file is missing.
    */
  def threadCpu(): Map[Long, Long] =
    if (!Files.isDirectory(taskDir)) Map.empty
    else {
      val out = Map.newBuilder[Long, Long]
      val it = Files.list(taskDir)
      try it.forEach { t =>
        try {
          val s = Files.readString(t.resolve("schedstat"))
          out += t.getFileName.toString.toLong -> s.substring(0, s.indexOf(' ')).toLong
        } catch { case _: Exception => () } // thread exited meanwhile
      } catch { case _: java.io.UncheckedIOException => () }
      finally it.close()
      out.result()
    }

  private val compilerTids = mutable.Map.empty[Long, Boolean]

  /** True for HotSpot's JIT compiler threads ("C1/C2 CompilerThread<n>"). */
  def isCompiler(tid: Long): Boolean = compilerTids.synchronized {
    compilerTids.getOrElseUpdate(tid,
      try Files.readString(taskDir.resolve(s"$tid/comm")).contains("CompilerThre")
      catch { case _: Exception => false })
  }

  /** Process CPU time in ns, from the MXBean (10 ms ticks). */
  def processCpuNanos(): Long = osBean.getProcessCpuTime

  /** Heap bytes allocated by all threads since JVM start. */
  def allocBytes(): Long = threadBean.getTotalThreadAllocatedBytes

  /** Heap bytes allocated by the calling thread since it started. */
  def threadAllocBytes(): Long = threadBean.getCurrentThreadAllocatedBytes

  /** Accumulated GC time, in ms, over all collectors. */
  def gcMillis(): Long = gcBeans.iterator.map(_.getCollectionTime).sum

  /** Host steal time, in clock ticks (1/100 s), from `/proc/stat`; 0 where
    * the file cannot be read.
    */
  def stealTicks(): Long =
    try {
      val cpu = Files.readAllLines(Paths.get("/proc/stat")).get(0).trim.split("\\s+")
      if (cpu.length > 8) cpu(8).toLong else 0L
    } catch { case _: Exception => 0L }

  /** A reading of every counter at one instant. */
  final case class Mark(wallNs: Long, threads: Map[Long, Long], processCpuNs: Long,
                        alloc: Long, gcMs: Long) {
    def wallS(to: Mark): Double = (to.wallNs - wallNs) / 1e9
    private def cpuOf(to: Mark, jit: Boolean): Double =
      to.threads.iterator.collect {
        case (t, ns) if isCompiler(t) == jit => ns - threads.getOrElse(t, 0L)
      }.sum / 1e9

    /** CPU time of all threads but the JIT compilers between the two
      * marks (GC and Spark tasks included). Per thread, so a thread that
      * exits in between takes only its own share with it; without
      * schedstat, the MXBean's process time.
      */
    def cpuS(to: Mark): Double =
      if (to.threads.isEmpty) (to.processCpuNs - processCpuNs) / 1e9 else cpuOf(to, jit = false)

    /** CPU time of the JIT compiler threads between the two marks. */
    def jitS(to: Mark): Double = cpuOf(to, jit = true)
    def allocTo(to: Mark): Long = to.alloc - alloc
    def gcS(to: Mark): Double = (to.gcMs - gcMs) / 1e3
  }

  def mark(): Mark =
    Mark(System.nanoTime(), threadCpu(), processCpuNanos(), allocBytes(), gcMillis())
}

/** Spans and counts recorded by a traced run, kept in memory and written
  * as JSON lines when the run ends. An untraced run keeps nothing.
  */
final class Tracer(val enabled: Boolean) {
  private final case class Span(id: Int, parent: Int, name: String, startNs: Long,
                                endNs: Long, attrs: Seq[(String, Double)])
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counts = mutable.ArrayBuffer.empty[(String, Double)]
  private val open = mutable.Stack.empty[Int]
  private var nextId = 0
  private val origin = System.nanoTime()

  /** Run `body` inside a span named `name`; `attrs` of the result are
    * attached to the span.
    */
  def span[A](name: String)(body: => A)(attrs: A => Seq[(String, Double)] = (_: A) => Nil): A = {
    if (!enabled) return body
    nextId += 1
    val id = nextId
    val parent = open.headOption.getOrElse(0)
    open.push(id)
    val t0 = System.nanoTime()
    try {
      val out = body
      spans += Span(id, parent, name, t0 - origin, System.nanoTime() - origin, attrs(out))
      out
    } finally open.pop()
  }

  /** Record a count taken at a layer boundary. */
  def count(name: String, value: Double): Unit = if (enabled) counts += name -> value

  /** Write every span, then every count, as one JSON object per line. */
  def flush(path: Path): Unit = if (enabled) {
    Files.createDirectories(path.getParent)
    val lines = spans.map { s =>
      val a = s.attrs.map { case (k, v) => s""""$k":${Json.num(v)}""" }.mkString(",")
      s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"attrs":{$a}}"""
    } ++ counts.map { case (n, v) => s"""{"count":"$n","value":${Json.num(v)}}""" }
    Files.write(path, lines.asJava)
  }
}

object Json {
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.lang.Double.toString(v)

  /** The result line: `metrics` are (name, value, unit). */
  def result(correct: Boolean, attempted: Long, failed: Long,
             metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }
}

object Stats {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  def geomean(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0 else math.exp(xs.iterator.map(math.log).sum / xs.length)
}
