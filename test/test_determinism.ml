(* Sequential vs. parallel determinism of the execution layer.

   Every protocol in the shared fingerprint table (test/fp/fp.ml) is run
   once on a single-lane pool (fully sequential) and replayed on 2- and
   4-lane pools, with and without fault injection, across >= 10 seeds.
   The fingerprints — final states, engine stats, and the accountant's
   hierarchical breakdowns — must match bit-for-bit: the multicore layer
   is a wall-clock knob only. *)

open Lbcc_util
module Fp = Lbcc_testfp.Fp

let test_protocol (name, f) () =
  Pool.set_default_domains 1;
  let baselines = List.map (fun s -> (s, f s)) Fp.seeds in
  List.iter
    (fun d ->
      Pool.set_default_domains d;
      List.iter
        (fun (s, expected) ->
          let got = f s in
          Alcotest.(check string)
            (Printf.sprintf "%s seed=%d domains=%d" name s d)
            expected got)
        baselines)
    [ 2; 4 ];
  Pool.set_default_domains 1

let test_pool_parallel_for () =
  List.iter
    (fun d ->
      Pool.set_default_domains d;
      let n = 1000 in
      let out = Array.make n 0 in
      Pool.parallel_for (Pool.default ()) ~chunk:7 ~n (fun lo hi ->
          for i = lo to hi - 1 do
            out.(i) <- i * i
          done);
      for i = 0 to n - 1 do
        if out.(i) <> i * i then
          Alcotest.failf "parallel_for domains=%d: slot %d" d i
      done)
    [ 1; 2; 4 ];
  Pool.set_default_domains 1

let test_pool_exceptions () =
  Pool.set_default_domains 4;
  (try
     Pool.parallel_for (Pool.default ()) ~chunk:1 ~n:64 (fun lo _ ->
         if lo = 13 then failwith "boom");
     Alcotest.fail "expected exception"
   with Failure m -> Alcotest.(check string) "propagated" "boom" m);
  (* The pool must be reusable after a failed run. *)
  let hit = Array.make 64 false in
  Pool.parallel_for (Pool.default ()) ~chunk:1 ~n:64 (fun lo hi ->
      for i = lo to hi - 1 do
        hit.(i) <- true
      done);
  Alcotest.(check bool) "reusable" true (Array.for_all Fun.id hit);
  Pool.set_default_domains 1

let test_pool_nested () =
  Pool.set_default_domains 4;
  let out = Array.make 100 0 in
  Pool.parallel_for (Pool.default ()) ~chunk:10 ~n:100 (fun lo hi ->
      (* Nested call on the busy pool: must run inline, not deadlock. *)
      Pool.parallel_for (Pool.default ()) ~chunk:1 ~n:(hi - lo) (fun l h ->
          for i = l to h - 1 do
            out.(lo + i) <- lo + i
          done));
  for i = 0 to 99 do
    if out.(i) <> i then Alcotest.failf "nested: slot %d" i
  done;
  Pool.set_default_domains 1

let suites =
  [
    ( "pool",
      [
        Alcotest.test_case "parallel_for covers" `Quick test_pool_parallel_for;
        Alcotest.test_case "exception propagation" `Quick test_pool_exceptions;
        Alcotest.test_case "nested runs inline" `Quick test_pool_nested;
      ] );
    ( "determinism",
      List.map
        (fun (name, f) ->
          Alcotest.test_case (name ^ " 1=2=4 domains") `Quick
            (test_protocol (name, f)))
        Fp.protocols );
  ]
