(* Machine-speed calibration.

   The benchmark's box is shared: other tenants slow it by up to a third
   for minutes at a time, longer than one run, so no statistic over one
   run's passes can see past it.  Two fixed kernels run between a run's
   passes — register arithmetic, and random read-modify-writes over a
   4 MiB table — and their best times track the box's current speed.  They
   use only the standard library, so no change to the program moves them.
   On a 2-vCPU shared VM, scaling each run's times by its slowdown
   against the reference speed roughly halved the run-to-run spread of
   the end-to-end metrics. *)

module Clock = Ft_util.Clock

type t = { mutable cpu_s : float; mutable mem_s : float }

let create () = { cpu_s = infinity; mem_s = infinity }

let cpu_kernel () =
  let x = ref 88172645463325252 in
  for _ = 1 to 3_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x)

let table = lazy (Array.make (512 * 1024) 0)

let mem_kernel () =
  let table = Lazy.force table in
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 1_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land (Array.length table - 1) in
    acc := !acc + Array.unsafe_get table i;
    Array.unsafe_set table i !acc
  done;
  ignore (Sys.opaque_identity !acc)

let time f =
  let t0 = Clock.now () in
  f ();
  Clock.now () -. t0

let sample t =
  for _ = 1 to 3 do
    t.cpu_s <- Float.min t.cpu_s (time cpu_kernel);
    t.mem_s <- Float.min t.mem_s (time mem_kernel)
  done

(* The kernels' typical best times on that 2-vCPU VM, so a scaled value
   reads like a raw one taken at its usual speed. *)
let reference_cpu_s = 0.0110
let reference_mem_s = 0.0043

(* How much slower than the reference the box ran: divide a time by it,
   multiply a rate by it. *)
let slowdown t = sqrt (t.cpu_s /. reference_cpu_s *. (t.mem_s /. reference_mem_s))
