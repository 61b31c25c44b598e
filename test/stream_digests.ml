(* Parent-pinned event-stream digests: see stream_oracle.ml.  Recorded
   with [Stream_oracle.print_table] on the commit before no-op protocol
   rounds were parked; do not regenerate from a later commit. *)

let table : (string * Stream_oracle.observation) list =
  [
    ( "7x7/pl/ideal/fast/s1",
      { Stream_oracle.digest = "e5ae2612612380864c2a718d9e2fd383"; events = 6600; timer_fires = 75744;
        captured = false; attacker_final = 48; total_messages = 1497;
        schedule = "s1-af355743a1fad6eb07ceda6b9e3b5401" } );
    ( "7x7/pl/ideal/fast/s2",
      { Stream_oracle.digest = "012fdbcc99db61bb3cb0094a48f6f00e"; events = 5635; timer_fires = 75744;
        captured = false; attacker_final = 42; total_messages = 1279;
        schedule = "s1-d669c1fadc02d38e421a8f4cca608edd" } );
    ( "7x7/pl/ideal/fast/s3",
      { Stream_oracle.digest = "f933486bb93149ffb5f22fa6eec8ca90"; events = 4261; timer_fires = 75260;
        captured = true; attacker_final = 0; total_messages = 969;
        schedule = "s1-78483e74c829af4f5a6eeb19eb0c72ae" } );
    ( "7x7/pl/ideal/fast/s4",
      { Stream_oracle.digest = "730c3d7fb19ce3ded192f0605926a879"; events = 4978; timer_fires = 75744;
        captured = false; attacker_final = 48; total_messages = 1127;
        schedule = "s1-ac2e3f94863916858514437840caa77c" } );
    ( "7x7/pl/ideal/ref/s1",
      { Stream_oracle.digest = "e5ae2612612380864c2a718d9e2fd383"; events = 6600; timer_fires = 75744;
        captured = false; attacker_final = 48; total_messages = 1497;
        schedule = "s1-af355743a1fad6eb07ceda6b9e3b5401" } );
    ( "7x7/pl/ideal/ref/s2",
      { Stream_oracle.digest = "012fdbcc99db61bb3cb0094a48f6f00e"; events = 5635; timer_fires = 75744;
        captured = false; attacker_final = 42; total_messages = 1279;
        schedule = "s1-d669c1fadc02d38e421a8f4cca608edd" } );
    ( "7x7/pl/ideal/ref/s3",
      { Stream_oracle.digest = "f933486bb93149ffb5f22fa6eec8ca90"; events = 4261; timer_fires = 75260;
        captured = true; attacker_final = 0; total_messages = 969;
        schedule = "s1-78483e74c829af4f5a6eeb19eb0c72ae" } );
    ( "7x7/pl/ideal/ref/s4",
      { Stream_oracle.digest = "730c3d7fb19ce3ded192f0605926a879"; events = 4978; timer_fires = 75744;
        captured = false; attacker_final = 48; total_messages = 1127;
        schedule = "s1-ac2e3f94863916858514437840caa77c" } );
    ( "7x7/pl/lossy/fast/s1",
      { Stream_oracle.digest = "29244150d0b19cdd4d502e7728be454a"; events = 6719; timer_fires = 75744;
        captured = false; attacker_final = 48; total_messages = 1519;
        schedule = "s1-4b951b2b11d2a1a086b503a2fbeade29" } );
    ( "7x7/pl/lossy/fast/s2",
      { Stream_oracle.digest = "7fb19f82492c8e5abad324bc260c2177"; events = 5625; timer_fires = 75744;
        captured = false; attacker_final = 42; total_messages = 1277;
        schedule = "s1-d90424777081f7b6342fdf288d0f57a9" } );
    ( "7x7/pl/lossy/fast/s3",
      { Stream_oracle.digest = "92d09e8603c868fbb8eddbefbb6c4d1e"; events = 4602; timer_fires = 75260;
        captured = true; attacker_final = 0; total_messages = 1048;
        schedule = "s1-258510dbe1c238af86b5a7a05a98f4e6" } );
    ( "7x7/pl/lossy/fast/s4",
      { Stream_oracle.digest = "cf2fcd78d91fe066a94acf587cc055a2"; events = 5250; timer_fires = 75744;
        captured = false; attacker_final = 48; total_messages = 1188;
        schedule = "s1-21da03f4f66ecc8369b1d8e00f3d801a" } );
    ( "7x7/pl/lossy/ref/s1",
      { Stream_oracle.digest = "29244150d0b19cdd4d502e7728be454a"; events = 6719; timer_fires = 75744;
        captured = false; attacker_final = 48; total_messages = 1519;
        schedule = "s1-4b951b2b11d2a1a086b503a2fbeade29" } );
    ( "7x7/pl/lossy/ref/s2",
      { Stream_oracle.digest = "7fb19f82492c8e5abad324bc260c2177"; events = 5625; timer_fires = 75744;
        captured = false; attacker_final = 42; total_messages = 1277;
        schedule = "s1-d90424777081f7b6342fdf288d0f57a9" } );
    ( "7x7/pl/lossy/ref/s3",
      { Stream_oracle.digest = "92d09e8603c868fbb8eddbefbb6c4d1e"; events = 4602; timer_fires = 75260;
        captured = true; attacker_final = 0; total_messages = 1048;
        schedule = "s1-258510dbe1c238af86b5a7a05a98f4e6" } );
    ( "7x7/pl/lossy/ref/s4",
      { Stream_oracle.digest = "cf2fcd78d91fe066a94acf587cc055a2"; events = 5250; timer_fires = 75744;
        captured = false; attacker_final = 48; total_messages = 1188;
        schedule = "s1-21da03f4f66ecc8369b1d8e00f3d801a" } );
    ( "7x7/pl/gauss/fast/s1",
      { Stream_oracle.digest = "e5ae2612612380864c2a718d9e2fd383"; events = 6600; timer_fires = 75744;
        captured = false; attacker_final = 48; total_messages = 1497;
        schedule = "s1-af355743a1fad6eb07ceda6b9e3b5401" } );
    ( "7x7/pl/gauss/fast/s2",
      { Stream_oracle.digest = "012fdbcc99db61bb3cb0094a48f6f00e"; events = 5635; timer_fires = 75744;
        captured = false; attacker_final = 42; total_messages = 1279;
        schedule = "s1-d669c1fadc02d38e421a8f4cca608edd" } );
    ( "7x7/pl/gauss/fast/s3",
      { Stream_oracle.digest = "f933486bb93149ffb5f22fa6eec8ca90"; events = 4261; timer_fires = 75260;
        captured = true; attacker_final = 0; total_messages = 969;
        schedule = "s1-78483e74c829af4f5a6eeb19eb0c72ae" } );
    ( "7x7/pl/gauss/fast/s4",
      { Stream_oracle.digest = "730c3d7fb19ce3ded192f0605926a879"; events = 4978; timer_fires = 75744;
        captured = false; attacker_final = 48; total_messages = 1127;
        schedule = "s1-ac2e3f94863916858514437840caa77c" } );
    ( "7x7/pl/gauss/ref/s1",
      { Stream_oracle.digest = "e5ae2612612380864c2a718d9e2fd383"; events = 6600; timer_fires = 75744;
        captured = false; attacker_final = 48; total_messages = 1497;
        schedule = "s1-af355743a1fad6eb07ceda6b9e3b5401" } );
    ( "7x7/pl/gauss/ref/s2",
      { Stream_oracle.digest = "012fdbcc99db61bb3cb0094a48f6f00e"; events = 5635; timer_fires = 75744;
        captured = false; attacker_final = 42; total_messages = 1279;
        schedule = "s1-d669c1fadc02d38e421a8f4cca608edd" } );
    ( "7x7/pl/gauss/ref/s3",
      { Stream_oracle.digest = "f933486bb93149ffb5f22fa6eec8ca90"; events = 4261; timer_fires = 75260;
        captured = true; attacker_final = 0; total_messages = 969;
        schedule = "s1-78483e74c829af4f5a6eeb19eb0c72ae" } );
    ( "7x7/pl/gauss/ref/s4",
      { Stream_oracle.digest = "730c3d7fb19ce3ded192f0605926a879"; events = 4978; timer_fires = 75744;
        captured = false; attacker_final = 48; total_messages = 1127;
        schedule = "s1-ac2e3f94863916858514437840caa77c" } );
    ( "7x7/slp/ideal/fast/s1",
      { Stream_oracle.digest = "8f095deeea6d01ba37da0a8b912de0d4"; events = 6632; timer_fires = 75745;
        captured = false; attacker_final = 48; total_messages = 1504;
        schedule = "s1-af355743a1fad6eb07ceda6b9e3b5401" } );
    ( "7x7/slp/ideal/fast/s2",
      { Stream_oracle.digest = "bc006bcb977e03009642441822bb39f8"; events = 5862; timer_fires = 75745;
        captured = false; attacker_final = 42; total_messages = 1329;
        schedule = "s1-cf16fb3c0507a890cf1fe92474715507" } );
    ( "7x7/slp/ideal/fast/s3",
      { Stream_oracle.digest = "c748a9aa20fefd09114de76e9342b9a5"; events = 5581; timer_fires = 75745;
        captured = false; attacker_final = 15; total_messages = 1267;
        schedule = "s1-07ef7b60c69520d2fd4058e3d16cb334" } );
    ( "7x7/slp/ideal/fast/s4",
      { Stream_oracle.digest = "2db3ba313e113d829bb78e6e3fd92246"; events = 5209; timer_fires = 75745;
        captured = false; attacker_final = 27; total_messages = 1178;
        schedule = "s1-27c20c544f225c8d0de65e50b86f503a" } );
    ( "7x7/slp/ideal/ref/s1",
      { Stream_oracle.digest = "8f095deeea6d01ba37da0a8b912de0d4"; events = 6632; timer_fires = 75745;
        captured = false; attacker_final = 48; total_messages = 1504;
        schedule = "s1-af355743a1fad6eb07ceda6b9e3b5401" } );
    ( "7x7/slp/ideal/ref/s2",
      { Stream_oracle.digest = "bc006bcb977e03009642441822bb39f8"; events = 5862; timer_fires = 75745;
        captured = false; attacker_final = 42; total_messages = 1329;
        schedule = "s1-cf16fb3c0507a890cf1fe92474715507" } );
    ( "7x7/slp/ideal/ref/s3",
      { Stream_oracle.digest = "c748a9aa20fefd09114de76e9342b9a5"; events = 5581; timer_fires = 75745;
        captured = false; attacker_final = 15; total_messages = 1267;
        schedule = "s1-07ef7b60c69520d2fd4058e3d16cb334" } );
    ( "7x7/slp/ideal/ref/s4",
      { Stream_oracle.digest = "2db3ba313e113d829bb78e6e3fd92246"; events = 5209; timer_fires = 75745;
        captured = false; attacker_final = 27; total_messages = 1178;
        schedule = "s1-27c20c544f225c8d0de65e50b86f503a" } );
    ( "7x7/slp/lossy/fast/s1",
      { Stream_oracle.digest = "4bdb0be0ac6234ca2257df12b81be76d"; events = 6835; timer_fires = 75745;
        captured = false; attacker_final = 34; total_messages = 1546;
        schedule = "s1-0f4ef69d82e1360bc0d1e9929f06ecad" } );
    ( "7x7/slp/lossy/fast/s2",
      { Stream_oracle.digest = "881e4233a76c3452a11079a132d910b5"; events = 5654; timer_fires = 75745;
        captured = false; attacker_final = 42; total_messages = 1283;
        schedule = "s1-d90424777081f7b6342fdf288d0f57a9" } );
    ( "7x7/slp/lossy/fast/s3",
      { Stream_oracle.digest = "0f9d0df339bf43236db50460e8875059"; events = 4757; timer_fires = 75261;
        captured = true; attacker_final = 0; total_messages = 1080;
        schedule = "s1-118b407a11fe54b5921e4155c65ae3be" } );
    ( "7x7/slp/lossy/fast/s4",
      { Stream_oracle.digest = "9b2c0a4c8f93ce79eb4f009f574114b3"; events = 5275; timer_fires = 75745;
        captured = false; attacker_final = 48; total_messages = 1193;
        schedule = "s1-21da03f4f66ecc8369b1d8e00f3d801a" } );
    ( "7x7/slp/lossy/ref/s1",
      { Stream_oracle.digest = "4bdb0be0ac6234ca2257df12b81be76d"; events = 6835; timer_fires = 75745;
        captured = false; attacker_final = 34; total_messages = 1546;
        schedule = "s1-0f4ef69d82e1360bc0d1e9929f06ecad" } );
    ( "7x7/slp/lossy/ref/s2",
      { Stream_oracle.digest = "881e4233a76c3452a11079a132d910b5"; events = 5654; timer_fires = 75745;
        captured = false; attacker_final = 42; total_messages = 1283;
        schedule = "s1-d90424777081f7b6342fdf288d0f57a9" } );
    ( "7x7/slp/lossy/ref/s3",
      { Stream_oracle.digest = "0f9d0df339bf43236db50460e8875059"; events = 4757; timer_fires = 75261;
        captured = true; attacker_final = 0; total_messages = 1080;
        schedule = "s1-118b407a11fe54b5921e4155c65ae3be" } );
    ( "7x7/slp/lossy/ref/s4",
      { Stream_oracle.digest = "9b2c0a4c8f93ce79eb4f009f574114b3"; events = 5275; timer_fires = 75745;
        captured = false; attacker_final = 48; total_messages = 1193;
        schedule = "s1-21da03f4f66ecc8369b1d8e00f3d801a" } );
    ( "7x7/slp/gauss/fast/s1",
      { Stream_oracle.digest = "8f095deeea6d01ba37da0a8b912de0d4"; events = 6632; timer_fires = 75745;
        captured = false; attacker_final = 48; total_messages = 1504;
        schedule = "s1-af355743a1fad6eb07ceda6b9e3b5401" } );
    ( "7x7/slp/gauss/fast/s2",
      { Stream_oracle.digest = "bc006bcb977e03009642441822bb39f8"; events = 5862; timer_fires = 75745;
        captured = false; attacker_final = 42; total_messages = 1329;
        schedule = "s1-cf16fb3c0507a890cf1fe92474715507" } );
    ( "7x7/slp/gauss/fast/s3",
      { Stream_oracle.digest = "c748a9aa20fefd09114de76e9342b9a5"; events = 5581; timer_fires = 75745;
        captured = false; attacker_final = 15; total_messages = 1267;
        schedule = "s1-07ef7b60c69520d2fd4058e3d16cb334" } );
    ( "7x7/slp/gauss/fast/s4",
      { Stream_oracle.digest = "2db3ba313e113d829bb78e6e3fd92246"; events = 5209; timer_fires = 75745;
        captured = false; attacker_final = 27; total_messages = 1178;
        schedule = "s1-27c20c544f225c8d0de65e50b86f503a" } );
    ( "7x7/slp/gauss/ref/s1",
      { Stream_oracle.digest = "8f095deeea6d01ba37da0a8b912de0d4"; events = 6632; timer_fires = 75745;
        captured = false; attacker_final = 48; total_messages = 1504;
        schedule = "s1-af355743a1fad6eb07ceda6b9e3b5401" } );
    ( "7x7/slp/gauss/ref/s2",
      { Stream_oracle.digest = "bc006bcb977e03009642441822bb39f8"; events = 5862; timer_fires = 75745;
        captured = false; attacker_final = 42; total_messages = 1329;
        schedule = "s1-cf16fb3c0507a890cf1fe92474715507" } );
    ( "7x7/slp/gauss/ref/s3",
      { Stream_oracle.digest = "c748a9aa20fefd09114de76e9342b9a5"; events = 5581; timer_fires = 75745;
        captured = false; attacker_final = 15; total_messages = 1267;
        schedule = "s1-07ef7b60c69520d2fd4058e3d16cb334" } );
    ( "7x7/slp/gauss/ref/s4",
      { Stream_oracle.digest = "2db3ba313e113d829bb78e6e3fd92246"; events = 5209; timer_fires = 75745;
        captured = false; attacker_final = 27; total_messages = 1178;
        schedule = "s1-27c20c544f225c8d0de65e50b86f503a" } );
    ( "11x11/pl/ideal/fast/s1",
      { Stream_oracle.digest = "50ea0b4640ca42e1339d443d91fe35eb"; events = 19685; timer_fires = 188502;
        captured = false; attacker_final = 10; total_messages = 4270;
        schedule = "s1-36559d52679a3a80011c29be7a6ab0a4" } );
    ( "11x11/pl/ideal/fast/s2",
      { Stream_oracle.digest = "f9d2476c7edf0ad399aeb6227060daa7"; events = 20885; timer_fires = 188502;
        captured = false; attacker_final = 10; total_messages = 4529;
        schedule = "s1-d17dc6401fe999a11b783fd49d2f1e3d" } );
    ( "11x11/pl/ideal/fast/s3",
      { Stream_oracle.digest = "a9aa9b88057ce61b56ccaa0519a03e36"; events = 21147; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 4586;
        schedule = "s1-b6987ed91e7366fe5fe0a3988c2684ee" } );
    ( "11x11/pl/ideal/fast/s4",
      { Stream_oracle.digest = "7fda07867f63f62630a3b817d38cce3e"; events = 20337; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 4417;
        schedule = "s1-a71a1ac636da2cb29fe3648cea57ed5a" } );
    ( "11x11/pl/ideal/ref/s1",
      { Stream_oracle.digest = "50ea0b4640ca42e1339d443d91fe35eb"; events = 19685; timer_fires = 188502;
        captured = false; attacker_final = 10; total_messages = 4270;
        schedule = "s1-36559d52679a3a80011c29be7a6ab0a4" } );
    ( "11x11/pl/ideal/ref/s2",
      { Stream_oracle.digest = "f9d2476c7edf0ad399aeb6227060daa7"; events = 20885; timer_fires = 188502;
        captured = false; attacker_final = 10; total_messages = 4529;
        schedule = "s1-d17dc6401fe999a11b783fd49d2f1e3d" } );
    ( "11x11/pl/ideal/ref/s3",
      { Stream_oracle.digest = "a9aa9b88057ce61b56ccaa0519a03e36"; events = 21147; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 4586;
        schedule = "s1-b6987ed91e7366fe5fe0a3988c2684ee" } );
    ( "11x11/pl/ideal/ref/s4",
      { Stream_oracle.digest = "7fda07867f63f62630a3b817d38cce3e"; events = 20337; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 4417;
        schedule = "s1-a71a1ac636da2cb29fe3648cea57ed5a" } );
    ( "11x11/pl/lossy/fast/s1",
      { Stream_oracle.digest = "335c9eeb53d66bf7dbd0c62964dc5393"; events = 22190; timer_fires = 188502;
        captured = false; attacker_final = 10; total_messages = 4815;
        schedule = "s1-3ffa809d55d9544061203ce43d134306" } );
    ( "11x11/pl/lossy/fast/s2",
      { Stream_oracle.digest = "8b48199f6f61459758ba4244018fe12c"; events = 25366; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 5499;
        schedule = "s1-53fc39a282da4bc513c271caf3a6fe87" } );
    ( "11x11/pl/lossy/fast/s3",
      { Stream_oracle.digest = "a26fb8651ca2c700545faa873120b812"; events = 21625; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 4695;
        schedule = "s1-4f5ae4275570a1e19497d630ac976055" } );
    ( "11x11/pl/lossy/fast/s4",
      { Stream_oracle.digest = "2c833ec0d2c79c5f9802dd7401127e7e"; events = 22627; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 4921;
        schedule = "s1-c0cb103e5a569736fe94b57c30ef5283" } );
    ( "11x11/pl/lossy/ref/s1",
      { Stream_oracle.digest = "335c9eeb53d66bf7dbd0c62964dc5393"; events = 22190; timer_fires = 188502;
        captured = false; attacker_final = 10; total_messages = 4815;
        schedule = "s1-3ffa809d55d9544061203ce43d134306" } );
    ( "11x11/pl/lossy/ref/s2",
      { Stream_oracle.digest = "8b48199f6f61459758ba4244018fe12c"; events = 25366; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 5499;
        schedule = "s1-53fc39a282da4bc513c271caf3a6fe87" } );
    ( "11x11/pl/lossy/ref/s3",
      { Stream_oracle.digest = "a26fb8651ca2c700545faa873120b812"; events = 21625; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 4695;
        schedule = "s1-4f5ae4275570a1e19497d630ac976055" } );
    ( "11x11/pl/lossy/ref/s4",
      { Stream_oracle.digest = "2c833ec0d2c79c5f9802dd7401127e7e"; events = 22627; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 4921;
        schedule = "s1-c0cb103e5a569736fe94b57c30ef5283" } );
    ( "11x11/pl/gauss/fast/s1",
      { Stream_oracle.digest = "50ea0b4640ca42e1339d443d91fe35eb"; events = 19685; timer_fires = 188502;
        captured = false; attacker_final = 10; total_messages = 4270;
        schedule = "s1-36559d52679a3a80011c29be7a6ab0a4" } );
    ( "11x11/pl/gauss/fast/s2",
      { Stream_oracle.digest = "f9d2476c7edf0ad399aeb6227060daa7"; events = 20885; timer_fires = 188502;
        captured = false; attacker_final = 10; total_messages = 4529;
        schedule = "s1-d17dc6401fe999a11b783fd49d2f1e3d" } );
    ( "11x11/pl/gauss/fast/s3",
      { Stream_oracle.digest = "a9aa9b88057ce61b56ccaa0519a03e36"; events = 21147; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 4586;
        schedule = "s1-b6987ed91e7366fe5fe0a3988c2684ee" } );
    ( "11x11/pl/gauss/fast/s4",
      { Stream_oracle.digest = "7fda07867f63f62630a3b817d38cce3e"; events = 20337; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 4417;
        schedule = "s1-a71a1ac636da2cb29fe3648cea57ed5a" } );
    ( "11x11/pl/gauss/ref/s1",
      { Stream_oracle.digest = "50ea0b4640ca42e1339d443d91fe35eb"; events = 19685; timer_fires = 188502;
        captured = false; attacker_final = 10; total_messages = 4270;
        schedule = "s1-36559d52679a3a80011c29be7a6ab0a4" } );
    ( "11x11/pl/gauss/ref/s2",
      { Stream_oracle.digest = "f9d2476c7edf0ad399aeb6227060daa7"; events = 20885; timer_fires = 188502;
        captured = false; attacker_final = 10; total_messages = 4529;
        schedule = "s1-d17dc6401fe999a11b783fd49d2f1e3d" } );
    ( "11x11/pl/gauss/ref/s3",
      { Stream_oracle.digest = "a9aa9b88057ce61b56ccaa0519a03e36"; events = 21147; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 4586;
        schedule = "s1-b6987ed91e7366fe5fe0a3988c2684ee" } );
    ( "11x11/pl/gauss/ref/s4",
      { Stream_oracle.digest = "7fda07867f63f62630a3b817d38cce3e"; events = 20337; timer_fires = 188502;
        captured = false; attacker_final = 110; total_messages = 4417;
        schedule = "s1-a71a1ac636da2cb29fe3648cea57ed5a" } );
    ( "11x11/slp/ideal/fast/s1",
      { Stream_oracle.digest = "3d797389a7dab64c67b0c5020b7ad045"; events = 20442; timer_fires = 188503;
        captured = false; attacker_final = 10; total_messages = 4436;
        schedule = "s1-7658c39f59b38f00efe02a2a81c5fe43" } );
    ( "11x11/slp/ideal/fast/s2",
      { Stream_oracle.digest = "d0800d45e71f12924a269435d1cb5eaa"; events = 21547; timer_fires = 188503;
        captured = false; attacker_final = 120; total_messages = 4676;
        schedule = "s1-2e3e178ff0adadd631a85384ef80772b" } );
    ( "11x11/slp/ideal/fast/s3",
      { Stream_oracle.digest = "94642584d773b61a9a568a533d4537d9"; events = 21581; timer_fires = 188503;
        captured = false; attacker_final = 111; total_messages = 4683;
        schedule = "s1-4a76b52afb998cddd2cc4b05b37b8c12" } );
    ( "11x11/slp/ideal/fast/s4",
      { Stream_oracle.digest = "1ecfc2c34d965205b867ec682d438d84"; events = 18214; timer_fires = 187300;
        captured = true; attacker_final = 0; total_messages = 3966;
        schedule = "s1-89a2b199c3304f93a0a36f6903816eee" } );
    ( "11x11/slp/ideal/ref/s1",
      { Stream_oracle.digest = "3d797389a7dab64c67b0c5020b7ad045"; events = 20442; timer_fires = 188503;
        captured = false; attacker_final = 10; total_messages = 4436;
        schedule = "s1-7658c39f59b38f00efe02a2a81c5fe43" } );
    ( "11x11/slp/ideal/ref/s2",
      { Stream_oracle.digest = "d0800d45e71f12924a269435d1cb5eaa"; events = 21547; timer_fires = 188503;
        captured = false; attacker_final = 120; total_messages = 4676;
        schedule = "s1-2e3e178ff0adadd631a85384ef80772b" } );
    ( "11x11/slp/ideal/ref/s3",
      { Stream_oracle.digest = "94642584d773b61a9a568a533d4537d9"; events = 21581; timer_fires = 188503;
        captured = false; attacker_final = 111; total_messages = 4683;
        schedule = "s1-4a76b52afb998cddd2cc4b05b37b8c12" } );
    ( "11x11/slp/ideal/ref/s4",
      { Stream_oracle.digest = "1ecfc2c34d965205b867ec682d438d84"; events = 18214; timer_fires = 187300;
        captured = true; attacker_final = 0; total_messages = 3966;
        schedule = "s1-89a2b199c3304f93a0a36f6903816eee" } );
    ( "11x11/slp/lossy/fast/s1",
      { Stream_oracle.digest = "9066c7d141345d5156d388a11248d345"; events = 22195; timer_fires = 188503;
        captured = false; attacker_final = 10; total_messages = 4816;
        schedule = "s1-3ffa809d55d9544061203ce43d134306" } );
    ( "11x11/slp/lossy/fast/s2",
      { Stream_oracle.digest = "675c85a17a4ed84d96bf64df4abf910c"; events = 25391; timer_fires = 188503;
        captured = false; attacker_final = 110; total_messages = 5504;
        schedule = "s1-53fc39a282da4bc513c271caf3a6fe87" } );
    ( "11x11/slp/lossy/fast/s3",
      { Stream_oracle.digest = "1e34abf0d461e33acc29ec59b7f97556"; events = 21640; timer_fires = 188503;
        captured = false; attacker_final = 110; total_messages = 4698;
        schedule = "s1-4f5ae4275570a1e19497d630ac976055" } );
    ( "11x11/slp/lossy/fast/s4",
      { Stream_oracle.digest = "1b205615d57b3f2b88009659e2b924ce"; events = 22652; timer_fires = 188503;
        captured = false; attacker_final = 110; total_messages = 4926;
        schedule = "s1-c0cb103e5a569736fe94b57c30ef5283" } );
    ( "11x11/slp/lossy/ref/s1",
      { Stream_oracle.digest = "9066c7d141345d5156d388a11248d345"; events = 22195; timer_fires = 188503;
        captured = false; attacker_final = 10; total_messages = 4816;
        schedule = "s1-3ffa809d55d9544061203ce43d134306" } );
    ( "11x11/slp/lossy/ref/s2",
      { Stream_oracle.digest = "675c85a17a4ed84d96bf64df4abf910c"; events = 25391; timer_fires = 188503;
        captured = false; attacker_final = 110; total_messages = 5504;
        schedule = "s1-53fc39a282da4bc513c271caf3a6fe87" } );
    ( "11x11/slp/lossy/ref/s3",
      { Stream_oracle.digest = "1e34abf0d461e33acc29ec59b7f97556"; events = 21640; timer_fires = 188503;
        captured = false; attacker_final = 110; total_messages = 4698;
        schedule = "s1-4f5ae4275570a1e19497d630ac976055" } );
    ( "11x11/slp/lossy/ref/s4",
      { Stream_oracle.digest = "1b205615d57b3f2b88009659e2b924ce"; events = 22652; timer_fires = 188503;
        captured = false; attacker_final = 110; total_messages = 4926;
        schedule = "s1-c0cb103e5a569736fe94b57c30ef5283" } );
    ( "11x11/slp/gauss/fast/s1",
      { Stream_oracle.digest = "3d797389a7dab64c67b0c5020b7ad045"; events = 20442; timer_fires = 188503;
        captured = false; attacker_final = 10; total_messages = 4436;
        schedule = "s1-7658c39f59b38f00efe02a2a81c5fe43" } );
    ( "11x11/slp/gauss/fast/s2",
      { Stream_oracle.digest = "d0800d45e71f12924a269435d1cb5eaa"; events = 21547; timer_fires = 188503;
        captured = false; attacker_final = 120; total_messages = 4676;
        schedule = "s1-2e3e178ff0adadd631a85384ef80772b" } );
    ( "11x11/slp/gauss/fast/s3",
      { Stream_oracle.digest = "94642584d773b61a9a568a533d4537d9"; events = 21581; timer_fires = 188503;
        captured = false; attacker_final = 111; total_messages = 4683;
        schedule = "s1-4a76b52afb998cddd2cc4b05b37b8c12" } );
    ( "11x11/slp/gauss/fast/s4",
      { Stream_oracle.digest = "1ecfc2c34d965205b867ec682d438d84"; events = 18214; timer_fires = 187300;
        captured = true; attacker_final = 0; total_messages = 3966;
        schedule = "s1-89a2b199c3304f93a0a36f6903816eee" } );
    ( "11x11/slp/gauss/ref/s1",
      { Stream_oracle.digest = "3d797389a7dab64c67b0c5020b7ad045"; events = 20442; timer_fires = 188503;
        captured = false; attacker_final = 10; total_messages = 4436;
        schedule = "s1-7658c39f59b38f00efe02a2a81c5fe43" } );
    ( "11x11/slp/gauss/ref/s2",
      { Stream_oracle.digest = "d0800d45e71f12924a269435d1cb5eaa"; events = 21547; timer_fires = 188503;
        captured = false; attacker_final = 120; total_messages = 4676;
        schedule = "s1-2e3e178ff0adadd631a85384ef80772b" } );
    ( "11x11/slp/gauss/ref/s3",
      { Stream_oracle.digest = "94642584d773b61a9a568a533d4537d9"; events = 21581; timer_fires = 188503;
        captured = false; attacker_final = 111; total_messages = 4683;
        schedule = "s1-4a76b52afb998cddd2cc4b05b37b8c12" } );
    ( "11x11/slp/gauss/ref/s4",
      { Stream_oracle.digest = "1ecfc2c34d965205b867ec682d438d84"; events = 18214; timer_fires = 187300;
        captured = true; attacker_final = 0; total_messages = 3966;
        schedule = "s1-89a2b199c3304f93a0a36f6903816eee" } );
    ( "7x7/slp/ideal/fast/s1/plan0",
      { Stream_oracle.digest = "753529c62b3f56c74533017933d807dd"; events = 7356; timer_fires = 74887;
        captured = false; attacker_final = 48; total_messages = 1663;
        schedule = "s1-0645a88d875707ffcfc4676065f7bf54" } );
    ( "7x7/slp/ideal/ref/s1/plan0",
      { Stream_oracle.digest = "753529c62b3f56c74533017933d807dd"; events = 7356; timer_fires = 74887;
        captured = false; attacker_final = 48; total_messages = 1663;
        schedule = "s1-0645a88d875707ffcfc4676065f7bf54" } );
    ( "7x7/slp/ideal/fast/s1/plan1",
      { Stream_oracle.digest = "3760ef090e339cdfd9efbaa107b2d8a7"; events = 6504; timer_fires = 75793;
        captured = false; attacker_final = 48; total_messages = 1470;
        schedule = "s1-af355743a1fad6eb07ceda6b9e3b5401" } );
    ( "7x7/slp/ideal/ref/s1/plan1",
      { Stream_oracle.digest = "3760ef090e339cdfd9efbaa107b2d8a7"; events = 6504; timer_fires = 75793;
        captured = false; attacker_final = 48; total_messages = 1470;
        schedule = "s1-af355743a1fad6eb07ceda6b9e3b5401" } );
    ( "11x11/slp/ideal/fast/s1/plan0",
      { Stream_oracle.digest = "7862292dabef50182b7e2df9f037181c"; events = 21217; timer_fires = 187969;
        captured = false; attacker_final = 10; total_messages = 4596;
        schedule = "s1-b9fb4aa9fae5ff4216c2c07bd4efdb85" } );
    ( "11x11/slp/ideal/ref/s1/plan0",
      { Stream_oracle.digest = "7862292dabef50182b7e2df9f037181c"; events = 21217; timer_fires = 187969;
        captured = false; attacker_final = 10; total_messages = 4596;
        schedule = "s1-b9fb4aa9fae5ff4216c2c07bd4efdb85" } );
    ( "11x11/slp/ideal/fast/s1/plan1",
      { Stream_oracle.digest = "0b59824546cf5f59007f8e4695e2899d"; events = 20295; timer_fires = 188777;
        captured = false; attacker_final = 10; total_messages = 4400;
        schedule = "s1-7658c39f59b38f00efe02a2a81c5fe43" } );
    ( "11x11/slp/ideal/ref/s1/plan1",
      { Stream_oracle.digest = "0b59824546cf5f59007f8e4695e2899d"; events = 20295; timer_fires = 188777;
        captured = false; attacker_final = 10; total_messages = 4400;
        schedule = "s1-7658c39f59b38f00efe02a2a81c5fe43" } );
  ]
