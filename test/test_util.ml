open Lbcc_util

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "different seeds differ" true (!same < 4)

let test_prng_float_range () =
  let t = Prng.create 7 in
  for _ = 1 to 10_000 do
    let f = Prng.float t in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_float_mean () =
  let t = Prng.create 9 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.float t
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_prng_bernoulli () =
  let t = Prng.create 3 in
  let hits = ref 0 and n = 40_000 in
  for _ = 1 to n do
    if Prng.bernoulli t 0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 1/4" true (Float.abs (rate -. 0.25) < 0.01)

let test_prng_split_diverges () =
  let a = Prng.create 5 in
  let b = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_prng_gaussian_moments () =
  let t = Prng.create 11 in
  let n = 50_000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let g = Prng.gaussian t in
    sum := !sum +. g;
    sum2 := !sum2 +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.03);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.0) < 0.05)

let test_prng_shuffle_permutes () =
  let t = Prng.create 13 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id) sorted

let prop_prng_int_bounds =
  QCheck.Test.make ~name:"Prng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Prng.create seed in
      let v = Prng.int t bound in
      v >= 0 && v < bound)

(* The fault model's coins depend on this being the same draw. *)
let prop_prng_first_bernoulli =
  QCheck.Test.make ~name:"first_bernoulli = bernoulli of a fresh generator"
    ~count:500
    QCheck.(pair int (float_bound_inclusive 1.0))
    (fun (seed, p) ->
      Prng.first_bernoulli seed p = Prng.bernoulli (Prng.create seed) p)

(* ... and the tamper salt on this being the draw after it. *)
let prop_prng_second_int =
  QCheck.Test.make ~name:"second_int = second draw of a fresh generator"
    ~count:500 QCheck.int (fun seed ->
      let g = Prng.create seed in
      ignore (Prng.next_int64 g : int64);
      Prng.second_int seed = Int64.to_int (Prng.next_int64 g) land max_int)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_variance () =
  (* Unbiased: the squared deviations sum to 14 over n - 1 = 3. *)
  check_float "stddev" (sqrt (14.0 /. 3.0)) (Stats.stddev [| 1.0; 2.0; 3.0; 6.0 |]);
  check_float "one sample" 0.0 (Stats.stddev [| 7.0 |])

let test_stats_quantile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  let s = Stats.summarize xs in
  check_float "median" 3.0 s.Stats.median;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 5.0 s.Stats.max;
  Alcotest.(check (array (float 0.0))) "argument untouched" [| 5.0; 1.0; 3.0; 2.0; 4.0 |] xs;
  (* An even count interpolates between the two middle order statistics. *)
  check_float "interpolated median" 2.5 (Stats.summarize [| 4.0; 1.0; 3.0; 2.0 |]).Stats.median

let test_stats_summary () =
  let s = Stats.summarize [| 2.0; 4.0 |] in
  Alcotest.(check int) "count" 2 s.Stats.count;
  check_float "mean" 3.0 s.Stats.mean;
  check_float "median" 3.0 s.Stats.median

let test_stats_linear_fit () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 3.0; 5.0; 7.0; 9.0 |] in
  let slope, intercept = Stats.linear_fit xs ys in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept

let test_stats_scaling_exponent () =
  let ns = [| 10.0; 100.0; 1000.0 |] in
  let ys = Array.map (fun n -> 7.0 *. (n ** 1.5)) ns in
  let a = Stats.scaling_exponent ns ys in
  Alcotest.(check bool) "exponent ~ 1.5" true (Float.abs (a -. 1.5) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Bits                                                                *)

let test_bits_lengths () =
  Alcotest.(check int) "bit_length 0" 1 (Bits.bit_length 0);
  Alcotest.(check int) "bit_length 1" 1 (Bits.bit_length 1);
  Alcotest.(check int) "bit_length 7" 3 (Bits.bit_length 7);
  Alcotest.(check int) "bit_length 8" 4 (Bits.bit_length 8);
  Alcotest.(check int) "bit_length -8" 4 (Bits.bit_length (-8))

let test_bits_ceil_log2 () =
  Alcotest.(check int) "ceil_log2 1" 0 (Bits.ceil_log2 1);
  Alcotest.(check int) "ceil_log2 2" 1 (Bits.ceil_log2 2);
  Alcotest.(check int) "ceil_log2 3" 2 (Bits.ceil_log2 3);
  Alcotest.(check int) "ceil_log2 1024" 10 (Bits.ceil_log2 1024);
  Alcotest.(check int) "ceil_log2 1025" 11 (Bits.ceil_log2 1025)

let test_bits_ceil_div () =
  Alcotest.(check int) "7/3" 3 (Bits.ceil_div 7 3);
  Alcotest.(check int) "6/3" 2 (Bits.ceil_div 6 3);
  Alcotest.(check int) "0/5" 0 (Bits.ceil_div 0 5)

let test_bits_id_bits () =
  Alcotest.(check int) "n=1024" 10 (Bits.id_bits ~n:1024);
  Alcotest.(check int) "n=1" 1 (Bits.id_bits ~n:1)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let test_heap_sorts () =
  let h = Heap.create () in
  let prng = Prng.create 17 in
  let keys = Array.init 500 (fun _ -> Prng.float prng) in
  Array.iteri (fun i k -> Heap.push h k i) keys;
  let out = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | None -> ()
    | Some (k, _) ->
        out := k :: !out;
        drain ()
  in
  drain ();
  let got = Array.of_list (List.rev !out) in
  let expect = Array.copy keys in
  Array.sort compare expect;
  Alcotest.(check (array (float 0.0))) "heap sorts" expect got

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "pop empty" true (Heap.pop_min h = None)

let prop_heap_min =
  QCheck.Test.make ~name:"Heap.pop_min returns minimum" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range 0.0 100.0))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h k ()) keys;
      match Heap.pop_min h with
      | Some (k, ()) -> k = List.fold_left Float.min infinity keys
      | None -> false)

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "float range" `Quick test_prng_float_range;
        Alcotest.test_case "float mean" `Quick test_prng_float_mean;
        Alcotest.test_case "bernoulli rate" `Quick test_prng_bernoulli;
        Alcotest.test_case "split diverges" `Quick test_prng_split_diverges;
        Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
        Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        QCheck_alcotest.to_alcotest prop_prng_int_bounds;
        QCheck_alcotest.to_alcotest prop_prng_first_bernoulli;
        QCheck_alcotest.to_alcotest prop_prng_second_int;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "variance" `Quick test_stats_variance;
        Alcotest.test_case "quantile" `Quick test_stats_quantile;
        Alcotest.test_case "summary" `Quick test_stats_summary;
        Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
        Alcotest.test_case "scaling exponent" `Quick test_stats_scaling_exponent;
      ] );
    ( "util.bits",
      [
        Alcotest.test_case "bit lengths" `Quick test_bits_lengths;
        Alcotest.test_case "ceil_log2" `Quick test_bits_ceil_log2;
        Alcotest.test_case "ceil_div" `Quick test_bits_ceil_div;
        Alcotest.test_case "id_bits" `Quick test_bits_id_bits;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "sorts" `Quick test_heap_sorts;
        Alcotest.test_case "empty" `Quick test_heap_empty;
        QCheck_alcotest.to_alcotest prop_heap_min;
      ] );
  ]
